// Package obscoverage exercises the obscoverage analyzer. The test enrolls
// this package in ObsCoverageTargets for the duration of the run.
package obscoverage

import "fixture/internal/obs"

var total = obs.C(obs.NameGoodTotal)

// Create records directly: fine.
func Create() {
	total.Inc()
}

// CreateDeep records through a chain of same-package helpers.
func CreateDeep() {
	helperOne()
}

func helperOne() { helperTwo() }
func helperTwo() { total.Inc() }

// Remove records nothing.
func Remove() { // want `exported mutating op Remove records no metric or span`
}

// RemoveQuiet is exempted.
//
// slimvet:noobs fixture: commit point records elsewhere.
func RemoveQuiet() {
}

var shape = obs.QueryShape("fixture shape")

// AddShaped records only a query-shape count: fine.
func AddShaped() {
	shape.Record()
}

// StoreShapeless looks a shape up but never counts it.
func StoreShapeless() { // want `exported mutating op StoreShapeless records no metric or span`
	_ = obs.QueryShape("fixture shape")
}

// Get is not a mutating verb: fine.
func Get() {
}

// Settings starts with "Set" but not at a word boundary: fine.
func Settings() {
}

// unexportedSet is mutating but unexported: fine.
func unexportedSet() {
}

func init() { unexportedSet() }

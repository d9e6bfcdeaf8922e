package main

import (
	"fmt"
	"math/rand"
	"syscall"
	"time"
	"unsafe"
)

// The machine this benchmark runs on is shared: other tenants' traffic in
// the shared L3 cache and memory changes how fast this process is served,
// by up to 1.5x over minutes, and every workload here goes beyond the
// private L2 cache. hostProbe measures that speed next to what is timed
// (beside each cold open, between the slices of a window) by chasing
// pointers around a random 8 MB cycle, where each load depends on the one
// before. Times are scaled by hostFactor of the rates taken beside them
// (see README.md).
type hostProbe struct {
	mem  []byte  // anonymous mapping outside the Go heap
	next []int32 // next[i] is the entry after i on the cycle
	pos  int32
}

const (
	probeEntries = 2 << 20 // 8 MB of int32: beyond L2, inside L3
	probeFor     = 15 * time.Millisecond
	// refProbeRate is the probe rate, in steps per second, at which host-
	// adjusted times equal measured ones: the reference memory speed.
	refProbeRate = 1e7
)

// newHostProbe maps the cycle outside the Go heap, so it neither adds to
// the live heap the garbage collector paces itself by nor is scanned.
// Sattolo's shuffle turns the identity into one random cycle through
// every entry, in place.
func newHostProbe() (*hostProbe, error) {
	mem, err := syscall.Mmap(-1, 0, probeEntries*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping the host probe: %w", err)
	}
	next := unsafe.Slice((*int32)(unsafe.Pointer(&mem[0])), probeEntries)
	for i := range next {
		next[i] = int32(i)
	}
	rng := rand.New(rand.NewSource(1))
	for i := probeEntries - 1; i > 0; i-- {
		j := rng.Intn(i)
		next[i], next[j] = next[j], next[i]
	}
	return &hostProbe{mem: mem, next: next}, nil
}

func (p *hostProbe) close() error {
	p.next = nil
	return syscall.Munmap(p.mem)
}

// rate chases the cycle for probeFor and returns the steps per second.
func (p *hostProbe) rate() float64 {
	start := time.Now()
	end := start.Add(probeFor)
	steps := 0
	i := p.pos
	for time.Now().Before(end) {
		for j := 0; j < 1000; j++ {
			i = p.next[i]
		}
		steps += 1000
	}
	p.pos = i
	return float64(steps) / time.Since(start).Seconds()
}

// hostFactor is the median of rates over the reference rate: a time
// measured while the host served memory at those rates, multiplied by the
// factor, is the time at the reference speed.
func hostFactor(rates []float64) float64 {
	return median(rates) / refProbeRate
}

package metamodel

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// The paper generates DMIs "from high-level specification, using techniques
// from domain-specific languages" (§4.4; ref [24] is the SLIM-ML memo).
// This file implements that specification language: a compact line-oriented
// text format describing a model, from which slim.GenerateDMI derives the
// data manipulation interface.
//
//	model http://x/model "Tiny"
//	namespace http://x/
//
//	construct Doc "Document"
//	literal   Title string
//	mark      Ref
//
//	connector title  Doc -> Title [1..1]
//	connector notes  Doc -> Note  [0..*]
//	conformance rowOf Row -> Table
//	generalization noteIsDoc Note -> Doc
//
// Names resolve against the declared namespace unless they are full IRIs.
// Literal datatypes are string | integer | decimal | boolean | any.
// '#' starts a comment; blank lines are ignored.

// ParseModelSpec parses the SLIM-ML text format into a Model.
func ParseModelSpec(src string) (*Model, error) {
	var m *Model
	ns := ""
	resolve := func(name string) string {
		if strings.Contains(name, "://") {
			return name
		}
		return ns + name
	}
	datatypes := map[string]string{
		"string":  "http://www.w3.org/2001/XMLSchema#string",
		"integer": "http://www.w3.org/2001/XMLSchema#integer",
		"decimal": "http://www.w3.org/2001/XMLSchema#decimal",
		"boolean": "http://www.w3.org/2001/XMLSchema#boolean",
		"any":     "",
	}

	lineNo := 0
	for _, raw := range strings.Split(src, "\n") {
		lineNo++
		line := strings.TrimSpace(raw)
		// '#' opens a comment only at line start or after whitespace, so
		// IRIs with fragments (http://x#y) pass through.
		for i := 0; i < len(line); i++ {
			if line[i] == '#' && (i == 0 || line[i-1] == ' ' || line[i-1] == '\t') {
				line = strings.TrimSpace(line[:i])
				break
			}
		}
		if line == "" {
			continue
		}
		fields, label, err := splitSpecLine(line)
		if err != nil {
			return nil, fmt.Errorf("metamodel: spec line %d: %w", lineNo, err)
		}
		kw := fields[0]
		if m == nil && kw != "model" {
			return nil, fmt.Errorf("metamodel: spec line %d: the first declaration must be 'model'", lineNo)
		}
		switch kw {
		case "model":
			if m != nil {
				return nil, fmt.Errorf("metamodel: spec line %d: duplicate model declaration", lineNo)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("metamodel: spec line %d: model needs an IRI", lineNo)
			}
			m = NewModel(fields[1], label)
		case "namespace":
			if len(fields) != 2 {
				return nil, fmt.Errorf("metamodel: spec line %d: namespace needs an IRI prefix", lineNo)
			}
			ns = fields[1]
		case "construct", "literal", "mark":
			if len(fields) < 2 {
				return nil, fmt.Errorf("metamodel: spec line %d: %s needs a name", lineNo, kw)
			}
			c := Construct{ID: resolve(fields[1]), Label: label}
			if c.Label == "" {
				c.Label = fields[1]
			}
			switch kw {
			case "literal":
				c.Kind = KindLiteralConstruct
				if len(fields) >= 3 {
					dt, ok := datatypes[fields[2]]
					if !ok {
						return nil, fmt.Errorf("metamodel: spec line %d: unknown datatype %q", lineNo, fields[2])
					}
					c.Datatype = dt
				}
			case "mark":
				c.Kind = KindMarkConstruct
			}
			if err := m.AddConstruct(c); err != nil {
				return nil, fmt.Errorf("metamodel: spec line %d: %w", lineNo, err)
			}
		case "connector", "conformance", "generalization":
			// <kw> name From -> To [min..max]
			if len(fields) < 5 || fields[3] != "->" {
				return nil, fmt.Errorf("metamodel: spec line %d: expected '%s name From -> To [min..max]'", lineNo, kw)
			}
			conn := Connector{
				ID:    resolve(fields[1]),
				Label: fields[1],
				From:  resolve(fields[2]),
				To:    resolve(fields[4]),
			}
			if label != "" {
				conn.Label = label
			}
			switch kw {
			case "conformance":
				conn.Kind = KindConformance
			case "generalization":
				conn.Kind = KindGeneralization
			default:
				conn.Kind = KindConnector
				conn.MaxCard = Unbounded
			}
			if len(fields) >= 6 {
				if conn.Kind != KindConnector {
					return nil, fmt.Errorf("metamodel: spec line %d: cardinalities only apply to connectors", lineNo)
				}
				min, max, err := parseCard(fields[5])
				if err != nil {
					return nil, fmt.Errorf("metamodel: spec line %d: %w", lineNo, err)
				}
				conn.MinCard, conn.MaxCard = min, max
			}
			if err := m.AddConnector(conn); err != nil {
				return nil, fmt.Errorf("metamodel: spec line %d: %w", lineNo, err)
			}
		default:
			return nil, fmt.Errorf("metamodel: spec line %d: unknown keyword %q", lineNo, kw)
		}
	}
	if m == nil {
		return nil, fmt.Errorf("metamodel: empty model spec")
	}
	return m, nil
}

// splitSpecLine splits a line into whitespace-separated fields, pulling out
// a trailing "quoted label" if present.
func splitSpecLine(line string) (fields []string, label string, err error) {
	if i := strings.IndexByte(line, '"'); i >= 0 {
		rest := line[i+1:]
		j := strings.IndexByte(rest, '"')
		if j < 0 {
			return nil, "", fmt.Errorf("unterminated label quote")
		}
		if strings.TrimSpace(rest[j+1:]) != "" {
			return nil, "", fmt.Errorf("text after the quoted label")
		}
		label = rest[:j]
		line = strings.TrimSpace(line[:i])
	}
	fields = strings.Fields(line)
	if len(fields) == 0 {
		return nil, "", fmt.Errorf("label without a declaration")
	}
	return fields, label, nil
}

// parseCard parses "[min..max]" where max is a number or '*'.
func parseCard(s string) (int, int, error) {
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return 0, 0, fmt.Errorf("cardinality %q must be [min..max]", s)
	}
	a, b, found := strings.Cut(s[1:len(s)-1], "..")
	if !found {
		return 0, 0, fmt.Errorf("cardinality %q must be [min..max]", s)
	}
	min, err := strconv.Atoi(a)
	if err != nil || min < 0 {
		return 0, 0, fmt.Errorf("cardinality %q: bad minimum", s)
	}
	if b == "*" {
		return min, Unbounded, nil
	}
	max, err := strconv.Atoi(b)
	if err != nil || max < min {
		return 0, 0, fmt.Errorf("cardinality %q: bad maximum", s)
	}
	return min, max, nil
}

// FormatModelSpec renders a model in the SLIM-ML text format. The output
// parses back to an equal model (namespaces are not re-inferred; full IRIs
// are written).
func FormatModelSpec(m *Model) string {
	var b strings.Builder
	fmt.Fprintf(&b, "model %s %q\n", m.ID, m.Label)
	names := map[string]string{
		"http://www.w3.org/2001/XMLSchema#string":  "string",
		"http://www.w3.org/2001/XMLSchema#integer": "integer",
		"http://www.w3.org/2001/XMLSchema#decimal": "decimal",
		"http://www.w3.org/2001/XMLSchema#boolean": "boolean",
		"": "any",
	}
	constructs := m.Constructs()
	sort.Slice(constructs, func(i, j int) bool { return constructs[i].ID < constructs[j].ID })
	for _, c := range constructs {
		switch c.Kind {
		case KindLiteralConstruct:
			dt, ok := names[c.Datatype]
			if !ok {
				dt = "any"
			}
			fmt.Fprintf(&b, "literal %s %s %q\n", c.ID, dt, c.Label)
		case KindMarkConstruct:
			fmt.Fprintf(&b, "mark %s %q\n", c.ID, c.Label)
		default:
			fmt.Fprintf(&b, "construct %s %q\n", c.ID, c.Label)
		}
	}
	for _, c := range m.Connectors() {
		switch c.Kind {
		case KindConformance:
			fmt.Fprintf(&b, "conformance %s %s -> %s %q\n", c.ID, c.From, c.To, c.Label)
		case KindGeneralization:
			fmt.Fprintf(&b, "generalization %s %s -> %s %q\n", c.ID, c.From, c.To, c.Label)
		default:
			max := "*"
			if c.MaxCard != Unbounded {
				max = strconv.Itoa(c.MaxCard)
			}
			fmt.Fprintf(&b, "connector %s %s -> %s [%d..%s] %q\n", c.ID, c.From, c.To, c.MinCard, max, c.Label)
		}
	}
	return b.String()
}

package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The strict parser of the Prometheus text exposition (version 0.0.4) that
// proves tranced's scrape parses cleanly (scrapeProm): HELP/TYPE
// declarations must precede samples, types must be known, sample names must
// belong to their family, label values must escape correctly, and histogram
// buckets must be cumulative with a +Inf bucket matching _count.

// promSample is one parsed exposition line.
type promSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Key renders the sample's identity (name plus sorted labels) — convenient
// for comparing two scrapes.
func (s promSample) Key() string {
	names := make([]string, 0, len(s.Labels))
	for n := range s.Labels {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	sb.WriteString(s.Name)
	for _, n := range names {
		fmt.Fprintf(&sb, "{%s=%q}", n, s.Labels[n])
	}
	return sb.String()
}

// promFamily is one parsed metric family.
type promFamily struct {
	Name    string
	Help    string
	Type    string
	Samples []promSample
}

// parseProm strictly parses an exposition document. Violations — samples before
// their HELP/TYPE declarations, unknown types, sample names outside the
// declared family, malformed labels or values, non-cumulative histogram
// buckets, a missing +Inf bucket, or _count disagreeing with it — are
// errors.
func parseProm(text string) (map[string]*promFamily, error) {
	fams := map[string]*promFamily{}
	helpSeen := map[string]bool{}
	var current *promFamily
	for lineNo, line := range strings.Split(text, "\n") {
		n := lineNo + 1
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, _, ok := strings.Cut(rest, " ")
			if !ok || name == "" {
				return nil, fmt.Errorf("line %d: malformed HELP", n)
			}
			if helpSeen[name] {
				return nil, fmt.Errorf("line %d: duplicate HELP for %s", n, name)
			}
			helpSeen[name] = true
			help := rest[len(name)+1:]
			fams[name] = &promFamily{Name: name, Help: help}
			current = fams[name]
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				return nil, fmt.Errorf("line %d: malformed TYPE", n)
			}
			name, typ := fields[0], fields[1]
			f, ok := fams[name]
			if !ok {
				return nil, fmt.Errorf("line %d: TYPE %s before its HELP", n, name)
			}
			if f.Type != "" {
				return nil, fmt.Errorf("line %d: duplicate TYPE for %s", n, name)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return nil, fmt.Errorf("line %d: unknown type %q", n, typ)
			}
			f.Type = typ
			current = f
		case strings.HasPrefix(line, "#"):
			// Free-form comment.
		default:
			s, err := parseSample(line)
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", n, err)
			}
			if current == nil || !sampleBelongs(current, s.Name) {
				return nil, fmt.Errorf("line %d: sample %s outside its family declaration", n, s.Name)
			}
			if current.Type == "" {
				return nil, fmt.Errorf("line %d: sample %s before TYPE", n, s.Name)
			}
			current.Samples = append(current.Samples, s)
		}
	}
	for _, f := range fams {
		if f.Type == "" {
			return nil, fmt.Errorf("family %s: HELP without TYPE", f.Name)
		}
		if f.Type == "histogram" {
			if err := checkHistogram(f); err != nil {
				return nil, err
			}
		}
	}
	return fams, nil
}

func sampleBelongs(f *promFamily, name string) bool {
	if name == f.Name {
		return f.Type != "histogram"
	}
	if f.Type == "histogram" {
		switch strings.TrimPrefix(name, f.Name) {
		case "_bucket", "_sum", "_count":
			return true
		}
	}
	return false
}

// checkHistogram validates cumulative bucket monotonicity per label set and
// that the +Inf bucket exists and equals _count.
func checkHistogram(f *promFamily) error {
	type series struct {
		lastLE   float64
		lastCum  float64
		infCount float64
		hasInf   bool
		count    float64
		hasCount bool
	}
	byKey := map[string]*series{}
	get := func(labels map[string]string) *series {
		names := make([]string, 0, len(labels))
		for k := range labels {
			if k != "le" {
				names = append(names, k)
			}
		}
		sort.Strings(names)
		var sb strings.Builder
		for _, k := range names {
			fmt.Fprintf(&sb, "%s=%q;", k, labels[k])
		}
		k := sb.String()
		s, ok := byKey[k]
		if !ok {
			s = &series{lastLE: math.Inf(-1)}
			byKey[k] = s
		}
		return s
	}
	for _, s := range f.Samples {
		ser := get(s.Labels)
		switch strings.TrimPrefix(s.Name, f.Name) {
		case "_bucket":
			leStr, ok := s.Labels["le"]
			if !ok {
				return fmt.Errorf("family %s: _bucket without le label", f.Name)
			}
			le, err := parseFloat(leStr)
			if err != nil {
				return fmt.Errorf("family %s: bad le %q", f.Name, leStr)
			}
			if le <= ser.lastLE {
				return fmt.Errorf("family %s: le buckets out of order (%q)", f.Name, leStr)
			}
			if s.Value < ser.lastCum {
				return fmt.Errorf("family %s: non-cumulative buckets at le=%q", f.Name, leStr)
			}
			ser.lastLE, ser.lastCum = le, s.Value
			if math.IsInf(le, 1) {
				ser.hasInf, ser.infCount = true, s.Value
			}
		case "_count":
			ser.hasCount, ser.count = true, s.Value
		}
	}
	for _, ser := range byKey {
		if !ser.hasInf {
			return fmt.Errorf("family %s: missing +Inf bucket", f.Name)
		}
		if ser.hasCount && ser.count != ser.infCount {
			return fmt.Errorf("family %s: _count %g != +Inf bucket %g", f.Name, ser.count, ser.infCount)
		}
	}
	return nil
}

func parseFloat(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	}
	return strconv.ParseFloat(s, 64)
}

// parseSample parses `name{label="value",…} value`.
func parseSample(line string) (promSample, error) {
	s := promSample{Labels: map[string]string{}}
	i := 0
	for i < len(line) && isNameChar(line[i], i == 0) {
		i++
	}
	if i == 0 {
		return s, fmt.Errorf("malformed sample name in %q", line)
	}
	s.Name = line[:i]
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		end, labels, err := parseLabels(rest)
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = rest[end:]
	}
	rest = strings.TrimLeft(rest, " ")
	// A timestamp after the value is allowed by the format; we emit none and
	// reject any here for strictness.
	if strings.ContainsAny(rest, " ") {
		return s, fmt.Errorf("trailing content after value in %q", line)
	}
	v, err := parseFloat(rest)
	if err != nil {
		return s, fmt.Errorf("bad value %q", rest)
	}
	s.Value = v
	return s, nil
}

func isNameChar(c byte, first bool) bool {
	if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':' {
		return true
	}
	return !first && c >= '0' && c <= '9'
}

// parseLabels parses `{k="v",…}` returning the byte offset past the closing
// brace.
func parseLabels(s string) (int, map[string]string, error) {
	labels := map[string]string{}
	i := 1 // past '{'
	for {
		if i >= len(s) {
			return 0, nil, fmt.Errorf("unterminated label set")
		}
		if s[i] == '}' {
			return i + 1, labels, nil
		}
		start := i
		for i < len(s) && isNameChar(s[i], i == start) {
			i++
		}
		name := s[start:i]
		if name == "" || i >= len(s) || s[i] != '=' {
			return 0, nil, fmt.Errorf("malformed label near %q", s[start:])
		}
		i++
		if i >= len(s) || s[i] != '"' {
			return 0, nil, fmt.Errorf("label value must be quoted near %q", s[start:])
		}
		i++
		var val strings.Builder
		for {
			if i >= len(s) {
				return 0, nil, fmt.Errorf("unterminated label value")
			}
			c := s[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' {
				if i+1 >= len(s) {
					return 0, nil, fmt.Errorf("dangling escape in label value")
				}
				switch s[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return 0, nil, fmt.Errorf("bad escape \\%c in label value", s[i+1])
				}
				i += 2
				continue
			}
			val.WriteByte(c)
			i++
		}
		if _, dup := labels[name]; dup {
			return 0, nil, fmt.Errorf("duplicate label %s", name)
		}
		labels[name] = val.String()
		if i < len(s) && s[i] == ',' {
			i++
		}
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	bad := []struct {
		name, text string
	}{
		{"sample before HELP", "m 1\n"},
		{"sample before TYPE", "# HELP m h\nm 1\n"},
		{"unknown type", "# HELP m h\n# TYPE m widget\nm 1\n"},
		{"duplicate HELP", "# HELP m h\n# TYPE m gauge\n# HELP m h2\n"},
		{"duplicate TYPE", "# HELP m h\n# TYPE m gauge\n# TYPE m gauge\n"},
		{"foreign sample", "# HELP m h\n# TYPE m gauge\nother 1\n"},
		{"trailing content", "# HELP m h\n# TYPE m gauge\nm 1 extra stuff\n"},
		{"bad value", "# HELP m h\n# TYPE m gauge\nm xyz\n"},
		{"duplicate label", `# HELP m h` + "\n" + `# TYPE m gauge` + "\n" + `m{a="1",a="2"} 1` + "\n"},
		{"unterminated labels", `# HELP m h` + "\n" + `# TYPE m gauge` + "\n" + `m{a="1" 1` + "\n"},
		{"histogram missing inf", "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_count 2\n"},
		{"histogram non-cumulative", "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_count 5\n"},
		{"histogram count mismatch", "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_count 4\n"},
	}
	for _, tc := range bad {
		if _, err := parseProm(tc.text); err == nil {
			t.Errorf("%s: parse accepted malformed input", tc.name)
		}
	}
}

func TestParseAcceptsInfAndComments(t *testing.T) {
	text := "# HELP m h\n# TYPE m gauge\n# a free-form comment\nm +Inf\n"
	parsed, err := parseProm(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed["m"].Samples) != 1 {
		t.Fatalf("samples: %+v", parsed["m"].Samples)
	}
}

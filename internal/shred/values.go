package shred

import (
	"fmt"
	"sync/atomic"

	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/value"
)

// ShreddedInput is the value-shredded form of an input relation: the flat top
// rows and one flat (label, element…) dictionary per nesting path, keyed by
// materialized name (MatName).
type ShreddedInput struct {
	Name string
	Rows map[string][]value.Tuple
}

// ShredInput value-shreds a nested bag: every inner bag instance is replaced
// by a fresh label and its elements land in the dictionary of its path. This
// is the value shredding function of paper Section 4.
func ShredInput(name string, b value.Bag, t nrc.BagType) (*ShreddedInput, error) {
	return ShredInputFrom(name, b, t, 0)
}

// ShredInputFrom is ShredInput numbering its labels from labelBase+1 rather
// than 1. Labels are opaque keys that only have to be distinct within an
// input, so runs of one input's rows shredded from disjoint label ranges
// concatenate, component by component, into a shredding of the whole input.
func ShredInputFrom(name string, b value.Bag, t nrc.BagType, labelBase int64) (*ShreddedInput, error) {
	s := &ShreddedInput{Name: name, Rows: map[string][]value.Tuple{}}
	var counters atomicCounters
	counters.n.Store(labelBase)
	top, err := s.shredBag(b, t.Elem, nil, &counters)
	if err != nil {
		return nil, err
	}
	s.Rows[MatName(name, nil)] = top
	// Ensure every dictionary exists, even when empty.
	_, dicts, err := ShredType(t)
	if err != nil {
		return nil, err
	}
	for _, d := range dicts {
		key := MatName(name, d.Path)
		if _, ok := s.Rows[key]; !ok {
			s.Rows[key] = nil
		}
	}
	return s, nil
}

type atomicCounters struct{ n atomic.Int64 }

func (c *atomicCounters) next() int64 { return c.n.Add(1) }

func (s *ShreddedInput) shredBag(b value.Bag, elem nrc.Type, path []string, ctr *atomicCounters) ([]value.Tuple, error) {
	tt, isTuple := elem.(nrc.TupleType)
	rows := make([]value.Tuple, 0, len(b))
	for _, e := range b {
		if !isTuple {
			rows = append(rows, value.Tuple{e})
			continue
		}
		src := e.(value.Tuple)
		row := make(value.Tuple, len(tt.Fields))
		for i, f := range tt.Fields {
			bagT, isBag := f.Type.(nrc.BagType)
			if !isBag {
				row[i] = src[i]
				continue
			}
			sub := append(append([]string{}, path...), f.Name)
			lbl := value.Label{Site: inputSite(s.Name, sub), Payload: value.Tuple{ctr.next()}}
			row[i] = lbl
			inner, err := s.shredBag(src[i].(value.Bag), bagT.Elem, sub, ctr)
			if err != nil {
				return nil, err
			}
			key := MatName(s.Name, sub)
			for _, ir := range inner {
				s.Rows[key] = append(s.Rows[key], append(value.Tuple{lbl}, ir...))
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// UnshredValue rebuilds a nested bag from shredded components — the value
// unshredding function, used as the inverse check in tests. dicts maps
// attribute paths (joined by "_") to flat dictionary rows.
func UnshredValue(top []value.Tuple, dicts map[string][]value.Tuple, t nrc.BagType) (value.Bag, error) {
	idx := map[string]map[string][]value.Tuple{}
	for path, rows := range dicts {
		m := map[string][]value.Tuple{}
		for _, r := range rows {
			k := value.Key(r[0])
			m[k] = append(m[k], r[1:])
		}
		idx[path] = m
	}
	return unshredBag(top, t.Elem, "", idx)
}

func unshredBag(rows []value.Tuple, elem nrc.Type, path string, idx map[string]map[string][]value.Tuple) (value.Bag, error) {
	tt, isTuple := elem.(nrc.TupleType)
	out := make(value.Bag, 0, len(rows))
	for _, r := range rows {
		if !isTuple {
			out = append(out, r[0])
			continue
		}
		nr := make(value.Tuple, len(tt.Fields))
		for i, f := range tt.Fields {
			bagT, isBag := f.Type.(nrc.BagType)
			if !isBag {
				nr[i] = r[i]
				continue
			}
			sub := f.Name
			if path != "" {
				sub = path + "_" + f.Name
			}
			m, ok := idx[sub]
			if !ok {
				return nil, fmt.Errorf("shred: missing dictionary for path %s", sub)
			}
			lbl, ok := r[i].(value.Label)
			if !ok {
				return nil, fmt.Errorf("shred: attribute %s is not a label: %v", f.Name, r[i])
			}
			inner, err := unshredBag(m[value.Key(lbl)], bagT.Elem, sub, idx)
			if err != nil {
				return nil, err
			}
			nr[i] = inner
		}
		out = append(out, nr)
	}
	return out, nil
}

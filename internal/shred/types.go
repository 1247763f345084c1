// Package shred implements the shredded compilation route of the paper
// (Section 4): the shredded representation of nested data, symbolic query
// shredding (paper Figure 4), the materialization phase (paper Figure 5),
// and the domain-elimination optimizations; the engine restores nested output
// by stitching it (runner's stitch.go).
//
// A nested bag is represented by a flat top bag whose bag-valued attributes
// are replaced by labels, plus one dictionary per nesting path. Materialized
// dictionaries use the relational (label, element…) encoding: one row per
// inner-bag element, empty bags encoded by absence and restored as {} when
// the output is unshredded.
package shred

import (
	"fmt"
	"hash/fnv"
	"strings"

	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/plan"
)

// MatName returns the conventional materialized name of an input's shredded
// component: name__F for the top bag, name__a_b for the dictionary at
// attribute path a.b.
func MatName(input string, path []string) string {
	if len(path) == 0 {
		return input + "__F"
	}
	return input + "__" + strings.Join(path, "_")
}

// inputSite derives a stable, negative NewLabel site for the labels minted
// while value-shredding an input's inner bags at the given path. Query-side
// sites are positive, so the spaces never collide.
func inputSite(input string, path []string) int32 {
	h := fnv.New32a()
	h.Write([]byte(input + "/" + strings.Join(path, "/")))
	return -int32(h.Sum32()&0x3fffffff) - 1
}

// DictSchema describes one materialized dictionary of a shredded input or
// output: its attribute path and its flat columns (label first).
type DictSchema struct {
	Path []string
	Cols []plan.Column
}

// ShredType computes the shredded schema of a bag type: the flat top columns
// (bag attributes become labels) and the dictionary schemas for every nesting
// path.
func ShredType(t nrc.BagType) (top []plan.Column, dicts []DictSchema, err error) {
	top, err = flatCols(t.Elem)
	if err != nil {
		return nil, nil, err
	}
	dicts, err = dictSchemas(t.Elem, nil)
	return top, dicts, err
}

// InputEnv returns the compiler environment entries for a shredded input: a
// type per materialized component.
func InputEnv(name string, t nrc.BagType) (nrc.Env, error) {
	top, dicts, err := ShredType(t)
	if err != nil {
		return nil, err
	}
	env := nrc.Env{MatName(name, nil): colsBag(top)}
	for _, d := range dicts {
		env[MatName(name, d.Path)] = colsBag(d.Cols)
	}
	return env, nil
}

func colsBag(cols []plan.Column) nrc.BagType {
	if len(cols) == 1 && cols[0].Name == "_value" {
		return nrc.BagType{Elem: cols[0].Type}
	}
	fs := make([]nrc.Field, len(cols))
	for i, c := range cols {
		fs[i] = nrc.Field{Name: c.Name, Type: c.Type}
	}
	return nrc.BagType{Elem: nrc.TupleType{Fields: fs}}
}

// flatCols maps a bag element type to flat columns, turning bag attributes
// into labels.
func flatCols(elem nrc.Type) ([]plan.Column, error) {
	switch x := elem.(type) {
	case nrc.TupleType:
		cols := make([]plan.Column, len(x.Fields))
		for i, f := range x.Fields {
			cols[i] = plan.Column{Name: f.Name, Type: shredScalarType(f.Type)}
		}
		return cols, nil
	case nrc.ScalarType, nrc.LabelType:
		return []plan.Column{{Name: "_value", Type: elem}}, nil
	}
	return nil, fmt.Errorf("shred: unsupported bag element type %s", elem)
}

// shredScalarType is T^F for attribute types: bags become labels, scalars
// stay.
func shredScalarType(t nrc.Type) nrc.Type {
	if _, ok := t.(nrc.BagType); ok {
		return nrc.LabelT
	}
	return t
}

// shredFlatType is T^F for whole types: bag elements are flattened
// recursively at the first level (inner bags become labels).
func shredFlatType(t nrc.Type) nrc.Type {
	switch x := t.(type) {
	case nrc.BagType:
		return nrc.BagType{Elem: shredFlatType(x.Elem)}
	case nrc.TupleType:
		fs := make([]nrc.Field, len(x.Fields))
		for i, f := range x.Fields {
			fs[i] = nrc.Field{Name: f.Name, Type: shredScalarType(f.Type)}
		}
		return nrc.TupleType{Fields: fs}
	default:
		return t
	}
}

func dictSchemas(elem nrc.Type, path []string) ([]DictSchema, error) {
	tt, ok := elem.(nrc.TupleType)
	if !ok {
		return nil, nil
	}
	var out []DictSchema
	for _, f := range tt.Fields {
		b, isBag := f.Type.(nrc.BagType)
		if !isBag {
			continue
		}
		p := append(append([]string{}, path...), f.Name)
		ec, err := flatCols(b.Elem)
		if err != nil {
			return nil, err
		}
		cols := append([]plan.Column{{Name: "label", Type: nrc.LabelT}}, ec...)
		out = append(out, DictSchema{Path: p, Cols: cols})
		sub, err := dictSchemas(b.Elem, p)
		if err != nil {
			return nil, err
		}
		out = append(out, sub...)
	}
	return out, nil
}

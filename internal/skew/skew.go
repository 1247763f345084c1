// Package skew implements the skew-resilient processing of paper Section 5:
// lightweight sampling to identify heavy keys, and the splitting of a
// distributed bag into the light/heavy components of a skew-triple.
//
// A key is heavy when at least Threshold of the sampled tuples in some
// partition carry it; with the paper's threshold of 2.5% there can be at most
// 40 distinct heavy keys per sampled partition, keeping the heavy-key set
// cheap to broadcast.
package skew

import (
	"cmp"
	"slices"

	"github.com/trance-go/trance/internal/dataflow"
	"github.com/trance-go/trance/internal/value"
)

// Defaults from the paper's experiments.
const (
	DefaultThreshold  = 0.025
	DefaultSampleSize = 400
)

// Detector configures heavy-key detection.
type Detector struct {
	Threshold  float64
	SampleSize int
}

// NewDetector returns a detector with the paper's defaults.
func NewDetector() Detector {
	return Detector{Threshold: DefaultThreshold, SampleSize: DefaultSampleSize}
}

// KeySet is a set of composite keys held the way the engine's group table
// holds them — by hash and a row that carries the key, never as a key string.
// Entries are sorted by hash, so membership is a binary search on
// value.HashCols and a value.EqualCols check against the few entries sharing
// the hash; len reports the number of keys. A heavy-key set is small (at most
// 1/Threshold keys per sampled partition), which is what keeps it cheap to
// broadcast and to probe once per row.
type KeySet []Key

// Key is one member of a KeySet: a row carrying the key, the key's columns in
// that row, and the key's hash.
type Key struct {
	hash uint64
	row  dataflow.Row
	cols []int
}

// Find returns the position of row's key over cols in the set, or -1. The
// columns may differ from the ones the set was built over: the right side of
// a join looks its rows up in the left side's heavy keys.
func (s KeySet) Find(row dataflow.Row, cols []int) int {
	if at, found := s.search(Key{hash: value.HashCols(row, cols), row: row, cols: cols}); found {
		return at
	}
	return -1
}

// Has reports whether row's key over cols is in the set.
func (s KeySet) Has(row dataflow.Row, cols []int) bool { return s.Find(row, cols) >= 0 }

// Matching is the set less its keys with a NULL column: a NULL key matches
// no row (dataflow.Join), so those are the keys a join's right side is split
// on. It is s itself when no key holds a NULL.
func (s KeySet) Matching() KeySet {
	null := func(k Key) bool { return slices.ContainsFunc(k.cols, func(c int) bool { return k.row[c] == nil }) }
	if !slices.ContainsFunc(s, null) {
		return s
	}
	return slices.DeleteFunc(slices.Clone(s), null)
}

// search returns k's position in the set, or where to insert it.
func (s KeySet) search(k Key) (at int, found bool) {
	at, _ = slices.BinarySearchFunc(s, k.hash, func(e Key, h uint64) int { return cmp.Compare(e.hash, h) })
	for i := at; i < len(s) && s[i].hash == k.hash; i++ {
		if s[i].equal(k) {
			return i, true
		}
	}
	return at, false
}

func (k Key) equal(o Key) bool { return value.EqualCols(k.row, k.cols, o.row, o.cols) }

// HeavyKeys samples each partition of d and returns the set of composite
// keys (over cols) that exceed the per-partition frequency threshold. The set
// is never nil, so callers can tell "no heavy keys" from "not computed".
func (det Detector) HeavyKeys(d *dataflow.Dataset, cols []int) KeySet {
	heavy := KeySet{}
	d.SamplePartitions(det.SampleSize, func(_ int, sample []dataflow.Row) {
		if len(sample) == 0 {
			return
		}
		limit := int(det.Threshold * float64(len(sample)))
		if limit < 1 {
			limit = 1
		}
		// Count by sorting the sample's keys on their hash: equal keys share
		// a hash run, and a run holds other keys only on a 64-bit collision.
		keys := make([]Key, len(sample))
		for i, r := range sample {
			keys[i] = Key{hash: value.HashCols(r, cols), row: r, cols: cols}
		}
		slices.SortFunc(keys, func(a, b Key) int { return cmp.Compare(a.hash, b.hash) })
		for lo := 0; lo < len(keys); {
			// Gather the occurrences of keys[lo] at the front of its run.
			hi := lo + 1
			for k := hi; k < len(keys) && keys[k].hash == keys[lo].hash; k++ {
				if keys[k].equal(keys[lo]) {
					keys[k], keys[hi] = keys[hi], keys[k]
					hi++
				}
			}
			if n := hi - lo; n >= limit && n > 1 {
				if at, found := heavy.search(keys[lo]); !found {
					heavy = slices.Insert(heavy, at, keys[lo])
				}
			}
			lo = hi
		}
	})
	return heavy
}

// Split divides d into the light and heavy components of a skew-triple in one
// pass: every row's key is hashed and looked up once.
func Split(d *dataflow.Dataset, cols []int, heavy KeySet) (light, heavyDS *dataflow.Dataset) {
	if len(heavy) == 0 {
		return d, d.Context().Empty()
	}
	heavyDS, light = d.Split(func(r dataflow.Row) bool { return heavy.Has(r, cols) })
	return light, heavyDS
}

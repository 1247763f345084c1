package dataflow

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"github.com/trance-go/trance/internal/value"
)

// keyedRows is a row set covering every key kind the table must tell apart
// the way value.KeyCols does: column 0 is the key, column 1 a sequence number
// identifying the row.
func keyedRows() []Row {
	keys := []value.Value{
		nil, int64(5), 5.0, "ab", "abc", nil, int64(5), true, 0.0, math.Copysign(0, -1),
		value.Date(5), math.NaN(), 5.0, "ab", false, math.NaN(),
		value.Label{Site: 1, Payload: value.Tuple{int64(7)}},
		value.Label{Site: 2, Payload: value.Tuple{int64(7)}},
		value.Label{Site: 1, Payload: value.Tuple{int64(7)}},
		value.Tuple{int64(1), value.Tuple{"x", nil}},
		value.Tuple{int64(1), value.Tuple{"x", nil}},
		value.Tuple{int64(1), value.Tuple{"x"}},
		int64(-5), "", nil, true,
	}
	rows := make([]Row, len(keys))
	for i, k := range keys {
		rows[i] = Row{k, int64(i)}
	}
	return rows
}

// seqs renders a group as its rows' sequence numbers.
func seqs(rows []Row) string {
	out := make([]int64, len(rows))
	for i, r := range rows {
		out[i] = r[len(r)-1].(int64)
	}
	return fmt.Sprint(out)
}

// TestGroupTableMatchesKeyStrings pins the table and the arena placement
// against the map[string][]Row grouping they replaced — same groups, same
// first-seen group order, same row order inside a group, same join match
// lists — under the real hash, under a constant hash (every key collides)
// and under a three-valued one, starting from a table that has to grow.
func TestGroupTableMatchesKeyStrings(t *testing.T) {
	rows := keyedRows()
	cols := []int{0}

	ref := map[string][]Row{}
	var order []string
	for _, r := range rows {
		k := value.KeyCols(r, cols)
		if _, ok := ref[k]; !ok {
			order = append(order, k)
		}
		ref[k] = append(ref[k], r)
	}

	hashes := map[string]func(Row) uint64{
		"HashCols": func(r Row) uint64 { return value.HashCols(r, cols) },
		"constant": func(Row) uint64 { return 42 },
		"three":    func(r Row) uint64 { return value.HashCols(r, cols) % 3 },
	}
	for name, hash := range hashes {
		t.Run(name, func(t *testing.T) {
			tab := newGroupTable(cols, 0)
			ids := make([]uint32, len(rows))
			for j, r := range rows {
				ids[j] = tab.intern(hash(r), r)
			}
			g := place(rows, ids, tab.len())
			if tab.len() != len(order) {
				t.Fatalf("%d groups, key strings give %d", tab.len(), len(order))
			}
			for id, k := range order {
				if got, want := seqs(g.group(uint32(id))), seqs(ref[k]); got != want {
					t.Fatalf("group %d holds rows %s, key strings give %s", id, got, want)
				}
			}

			// Probe with rows laid out differently (key in column 1): match
			// lists in build order, NULL keys and absent keys matching nothing.
			build := joinTable{keys: tab, rows: g}
			probes := append([]value.Value{int64(99), "abcd"}, func() []value.Value {
				var ks []value.Value
				for _, r := range rows {
					ks = append(ks, r[0])
				}
				return ks
			}()...)
			for _, k := range probes {
				l := Row{"left", k}
				want := ref[value.KeyCols(l, []int{1})]
				if k == nil {
					want = nil
				}
				got := build.probe(nil, l, hash(Row{k}), []int{1}, JoinOut{RightWidth: 2}.writer(), false)
				if len(got) != len(want) {
					t.Fatalf("probe %s matched %d rows, key strings give %d", value.Format(k), len(got), len(want))
				}
				for i, nr := range got {
					if !value.EqualCols(nr, []int{0, 1}, l, []int{0, 1}) || seqs([]Row{nr}) != seqs(want[i:i+1]) {
						t.Fatalf("probe %s match %d = %v, want left ++ %v", value.Format(k), i, nr, want[i])
					}
				}
			}
		})
	}
}

// TestPlaceDropsUngroupedRows: rows marked noGroup (NULL join keys, cogroup
// rows without a left key) take no arena space, and an empty grouping has no
// groups to ask for.
func TestPlaceDropsUngroupedRows(t *testing.T) {
	rows := []Row{{int64(0)}, {int64(1)}, {int64(2)}, {int64(3)}, {int64(4)}}
	g := place(rows, []uint32{1, noGroup, 0, 1, noGroup}, 2)
	if len(g.arena) != 3 || seqs(g.group(0)) != "[2]" || seqs(g.group(1)) != "[0 3]" {
		t.Fatalf("arena %v, groups %s %s", g.arena, seqs(g.group(0)), seqs(g.group(1)))
	}
	if g.group(noGroup) != nil || (grouped{}).group(0) != nil {
		t.Fatal("noGroup or an empty grouping returned rows")
	}
	var empty groupTable
	if empty.find(7, Row{int64(1)}, []int{0}) != noGroup {
		t.Fatal("zero-value table found a key")
	}
}

// TestGroupReduceKeyEquality: Γ groups by the key encoding, not by
// value.Compare — NULL keys form one group, int64 5 and float64 5.0 two, 0.0
// and -0.0 two — and groups come out in first-seen order, rows in arrival
// order (a one-partition shuffle keeps arrival order).
func TestGroupReduceKeyEquality(t *testing.T) {
	c := NewContext(1)
	g, err := c.FromRows(keyedRows()).GroupReduce("g", []int{0}, false, perGroup(func(rs []Row) []Row {
		return []Row{{seqs(rs)}}
	}))
	if err != nil {
		t.Fatal(err)
	}
	want := "[[[0 5 24]] [[1 6]] [[2 12]] [[3 13]] [[4]] [[7 25]] [[8]] [[9]] [[10]] [[11 15]] [[14]] " +
		"[[16 18]] [[17]] [[19 20]] [[21]] [[22]] [[23]]]"
	if got := fmt.Sprint(g.Collect()); got != want {
		t.Fatalf("groups %s\nwant   %s", got, want)
	}
}

// TestJoinNullKeysEitherSide drives shuffle and broadcast joins, inner and
// left outer, over NULL keys on the left only, the right only and both, alone
// and inside a composite key: NULL-keyed rows never match, and under
// leftOuter NULL-keyed left rows survive padded.
func TestJoinNullKeysEitherSide(t *testing.T) {
	left := []Row{
		{int64(1), "x", "l0"}, {nil, "x", "l1"}, {int64(1), nil, "l2"}, {nil, nil, "l3"}, {int64(2), "y", "l4"},
	}
	right := []Row{
		{int64(1), "x", "r0"}, {nil, "x", "r1"}, {int64(1), nil, "r2"}, {nil, nil, "r3"}, {int64(1), "x", "r4"}, {int64(3), "z", "r5"},
	}
	cases := []struct {
		cols  []int
		inner []string // left++right tags of the matches, sorted
		outer []string // the unmatched left tags kept under leftOuter
	}{
		{[]int{0}, []string{"l0r0", "l0r2", "l0r4", "l2r0", "l2r2", "l2r4"}, []string{"l1", "l3", "l4"}},
		{[]int{0, 1}, []string{"l0r0", "l0r4"}, []string{"l1", "l2", "l3", "l4"}},
	}
	type joinFn func(l, r *Dataset, cols []int, outer bool) (*Dataset, error)
	joins := map[string]joinFn{
		"shuffle": func(l, r *Dataset, cols []int, outer bool) (*Dataset, error) {
			return l.Join("j", r, cols, cols, [2]bool{}, JoinOut{RightWidth: 3}, outer)
		},
		"broadcast": func(l, r *Dataset, cols []int, outer bool) (*Dataset, error) {
			return l.BroadcastJoin("bj", r, cols, cols, JoinOut{RightWidth: 3}, outer)
		},
	}
	for name, join := range joins {
		for _, tc := range cases {
			for _, outer := range []bool{false, true} {
				c := NewContext(3)
				j, err := join(c.FromRows(left), c.FromRows(right), tc.cols, outer)
				if err != nil {
					t.Fatal(err)
				}
				var matched, padded []string
				for _, row := range j.Collect() {
					if len(row) != 6 {
						t.Fatalf("%s join row %v is not left ++ right", name, row)
					}
					if row[5] == nil {
						if row[3] != nil || row[4] != nil {
							t.Fatalf("%s: partially padded row %v", name, row)
						}
						padded = append(padded, row[2].(string))
					} else {
						matched = append(matched, row[2].(string)+row[5].(string))
					}
				}
				want := tc.outer
				if !outer {
					want = nil
				}
				if !sameStrings(matched, tc.inner) || !sameStrings(padded, want) {
					t.Fatalf("%s cols=%v outer=%t: matched %v padded %v, want %v / %v",
						name, tc.cols, outer, matched, padded, tc.inner, want)
				}
			}
		}
	}
}

func sameStrings(a, b []string) bool {
	count := map[string]int{}
	for _, s := range a {
		count[s]++
	}
	for _, s := range b {
		count[s]--
	}
	for _, n := range count {
		if n != 0 {
			return false
		}
	}
	return true
}

// TestShuffleCarriesRoutingHashes: a shuffle hands its routing hashes across
// the exchange — one per row, equal to HashCols over the columns it routed on
// — derived datasets do not inherit them, an operator keyed by other columns
// does not read them, and an operator fed the carried hashes answers exactly
// like one that has to compute them (a pending chain behind a skipped
// shuffle).
func TestShuffleCarriesRoutingHashes(t *testing.T) {
	c := NewContext(3)
	var rows []Row
	for i := 0; i < 200; i++ {
		rows = append(rows, Row{int64(i % 17), "v", int64(i)})
	}
	cols := []int{0}
	sh, err := c.FromRows(rows).RepartitionBy("s", cols, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(sh.hashes) != len(sh.parts) {
		t.Fatalf("%d hash slices for %d partitions", len(sh.hashes), len(sh.parts))
	}
	for i, part := range sh.parts {
		if len(sh.hashes[i]) != len(part) {
			t.Fatalf("partition %d: %d hashes for %d rows", i, len(sh.hashes[i]), len(part))
		}
		for j, r := range part {
			if sh.hashes[i][j] != value.HashCols(r, cols) {
				t.Fatalf("partition %d row %d: carried hash %x, HashCols %x", i, j, sh.hashes[i][j], value.HashCols(r, cols))
			}
		}
	}
	if !slices.Equal(sh.hashCols, cols) {
		t.Fatalf("hashes carried over %v, routed on %v", sh.hashCols, cols)
	}
	lazy := sh.Map(func(_ *Arena, r Row) Row { return r })
	if lazy.hashes != nil || sh.Filter(func(Row) bool { return true }).hashes != nil {
		t.Fatal("a derived dataset inherited the carried hashes")
	}

	sum := perGroup(func(rs []Row) []Row { return []Row{{rs[0][0], seqs(rs)}} })
	skips := c.Metrics.Snapshot().SkippedShuffles
	for _, key := range [][]int{cols, {2}} {
		carried, err := sh.GroupReduce("g1", key, true, sum)
		if err != nil {
			t.Fatal(err)
		}
		computed, err := lazy.GroupReduce("g2", key, true, sum)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(carried.Collect(), computed.Collect()) {
			t.Fatalf("key %v: carried hashes grouped %v, computed hashes %v", key, carried.Collect(), computed.Collect())
		}
	}
	if got := c.Metrics.Snapshot().SkippedShuffles - skips; got != 4 {
		t.Fatalf("%d shuffles skipped, want all 4", got)
	}
	right := c.FromRows([]Row{{int64(3), "r"}, {int64(16), "s"}, {int64(40), "t"}})
	j1, err := sh.Join("j1", right, cols, cols, [2]bool{true, false}, JoinOut{RightWidth: 2}, true)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := lazy.Join("j2", right, cols, cols, [2]bool{true, false}, JoinOut{RightWidth: 2}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(j1.Collect(), j2.Collect()) {
		t.Fatal("join over carried hashes differs from join over computed hashes")
	}
}

// TestSplitOnePass: Split runs the pending chain and the predicate once per
// row, keeps row order and partitions on both sides, and passes a poisoned
// input's error on.
func TestSplitOnePass(t *testing.T) {
	c := NewContext(2)
	c.Pool = NewPool(1)
	var mapped, asked int
	d := c.FromRows(rowsOfInts(1, 1, 2, 2, 3, 3, 4, 4, 5, 5)).
		Map(func(_ *Arena, r Row) Row { mapped++; return r })
	even, odd := d.Split(func(r Row) bool { asked++; return r[0].(int64)%2 == 0 })
	if mapped != 5 || asked != 5 {
		t.Fatalf("chain ran %d times, predicate %d, want 5 each", mapped, asked)
	}
	if fmt.Sprint(even.parts) != "[[[2 2]] [[4 4]]]" || fmt.Sprint(odd.parts) != "[[[1 1] [3 3]] [[5 5]]]" {
		t.Fatalf("split = %v / %v", even.parts, odd.parts)
	}
	bad := c.FromRows(rowsOfInts(1, 1)).Map(func(*Arena, Row) Row { panic("boom") })
	yes, no := bad.Split(func(Row) bool { return true })
	if yes.Err() == nil || no.Err() == nil {
		t.Fatal("split of a panicking chain did not poison both sides")
	}
}

// TestLookupFindsRowsInCollectOrder: a Lookup over a partitioned dataset with
// a pending narrow chain numbers its distinct non-NULL keys 0 to Len()-1 and
// finds, for a probe keyed in its own columns, the rows of the key in Collect
// order; NULL keys and absent keys find nothing.
func TestLookupFindsRowsInCollectOrder(t *testing.T) {
	rows := keyedRows()
	d := NewContext(3).FromPartitions([][]Row{rows[:7], rows[7:16], rows[16:]}).
		Filter(func(r Row) bool { return r[1].(int64) != 3 })
	l := d.Lookup([]int{0})

	want := map[string][]Row{}
	for _, r := range d.Collect() {
		if r[0] != nil {
			k := value.KeyCols(r, []int{0})
			want[k] = append(want[k], r)
		}
	}
	if l.Len() != len(want) {
		t.Fatalf("Len() = %d, want %d distinct non-NULL keys", l.Len(), len(want))
	}
	seen := map[int]string{}
	for k, rs := range want {
		id, got := l.Find(Row{"probe", rs[0][0]}, []int{1})
		if id < 0 || id >= l.Len() || seqs(got) != seqs(rs) {
			t.Fatalf("key %s: group %d rows %s, want rows %s", k, id, seqs(got), seqs(rs))
		}
		if other, dup := seen[id]; dup {
			t.Fatalf("keys %s and %s share group %d", other, k, id)
		}
		seen[id] = k
	}
	for _, probe := range []value.Value{nil, int64(99), "abd"} {
		if id, got := l.Find(Row{probe}, []int{0}); id != -1 || got != nil {
			t.Fatalf("probe %v: group %d rows %v, want -1 and none", probe, id, got)
		}
	}
}

package trance_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"github.com/trance-go/trance"
	"github.com/trance-go/trance/internal/index"
	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/shred"
	"github.com/trance-go/trance/internal/stats"
	"github.com/trance-go/trance/internal/value"
)

// chunkType is a nested dataset shape, so value shredding has a dictionary to
// number labels in.
func chunkType() trance.Type {
	return trance.BagOf(trance.Tup("id", trance.IntT, "grp", trance.IntT, "val", trance.RealT,
		"items", trance.BagOf(trance.Tup("k", trance.IntT, "w", trance.RealT))))
}

func chunkRows(rng *rand.Rand, next *int64, n int) trance.Bag {
	b := make(trance.Bag, n)
	for i := range b {
		id := *next
		*next++
		items := trance.Bag{}
		for j := rng.Intn(4); j > 0; j-- {
			items = append(items, trance.Tuple{int64(rng.Intn(10)), rng.Float64()})
		}
		var val trance.Value = float64(rng.Intn(50)) / 4
		if rng.Intn(9) == 0 {
			val = nil
		}
		b[i] = trance.Tuple{id, id % 7, val, items}
	}
	return b
}

// chunkQueries are a point read and a nested read over D, built fresh per use
// (compilation annotates ASTs in place).
var chunkQueries = []func() trance.Expr{
	func() trance.Expr {
		x := trance.V("x")
		return trance.ForIn("x", trance.V("D"),
			trance.IfThen(trance.EqOf(trance.P(x, "grp"), trance.C(int64(3))),
				trance.SingOf(trance.Record("id", trance.P(x, "id"), "val", trance.P(x, "val")))))
	},
	func() trance.Expr {
		x, it := trance.V("x"), trance.V("it")
		return trance.ForIn("x", trance.V("D"),
			trance.SingOf(trance.Record("id", trance.P(x, "id"),
				"big", trance.ForIn("it", trance.P(x, "items"),
					trance.IfThen(trance.GtOf(trance.P(it, "k"), trance.C(int64(4))),
						trance.SingOf(trance.Record("k", trance.P(it, "k"))))))))
	},
}

// TestChunkedGenerationsExact drives random sequences of Register, small and
// large Appends (so chunks merge), Deletes hitting one chunk and several,
// CreateIndex, and Drop + Register, mirroring the rows in a plain bag. After
// every step the chunked generation must be indistinguishable from one built
// over the whole bag: merged statistics equal stats.Collect on every exact
// field, every index answers like a fresh index.Build, the bound shredded
// components unshred to the data, every strategy agrees with the reference
// evaluator, and the chunks obey the compaction rule.
func TestChunkedGenerationsExact(t *testing.T) {
	bt := chunkType().(nrc.BagType)
	strategies := []trance.Strategy{trance.Standard, trance.StandardSkew, trance.Shred, trance.Auto}
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			var next int64
			cat := trance.NewCatalog()
			mirror := chunkRows(rng, &next, 150+rng.Intn(200))
			if err := cat.Register("D", chunkType(), mirror); err != nil {
				t.Fatal(err)
			}
			sess := cat.NewSession(trance.SessionOptions{})
			var sqs []*trance.SessionQuery
			for _, q := range chunkQueries {
				sq, err := sess.PrepareNamed("", q())
				if err != nil {
					t.Fatal(err)
				}
				sqs = append(sqs, sq)
			}
			check := func(step string) {
				t.Helper()
				data, _, _ := cat.Data("D")
				if !value.Equal(data, mirror) {
					t.Fatalf("%s: Data() diverges from the mirror", step)
				}
				checkChunkStats(t, step, cat, data, bt)
				checkChunkIndexes(t, step, cat, data)
				checkChunkShredding(t, step, cat, data, bt)
				sizes := trance.CatalogChunkRows(cat, "D")
				for i := 0; i+1 < len(sizes); i++ {
					if sizes[i] < 2*sizes[i+1] {
						t.Fatalf("%s: chunks %v break the compaction rule", step, sizes)
					}
				}
				if limit := bits.Len(uint(len(data))) + 1; len(sizes) > limit {
					t.Fatalf("%s: %d chunks over %d rows", step, len(sizes), len(data))
				}
				if info, _ := cat.Info("D"); info.Chunks != len(sizes) {
					t.Fatalf("%s: info reports %d chunks, have %d", step, info.Chunks, len(sizes))
				}
				for i, sq := range sqs {
					q := chunkQueries[i]()
					if _, err := trance.Check(q, trance.Env{"D": chunkType()}); err != nil {
						t.Fatal(err)
					}
					want := trance.LocalEval(q, map[string]trance.Bag{"D": mirror})
					for _, strat := range strategies {
						res, err := sq.Run(context.Background(), strat)
						if err != nil {
							t.Fatalf("%s: query %d %s: %v", step, i, strat, err)
						}
						if got := collectBag(res); !trance.ValuesEqual(got, want) {
							t.Fatalf("%s: query %d %s diverges from the oracle\n got: %s\nwant: %s",
								step, i, strat, trance.FormatValue(got), trance.FormatValue(want))
						}
					}
				}
			}
			check("register")
			for i := 0; i < 24; i++ {
				var step string
				switch op := rng.Intn(6); op {
				case 0, 1:
					n := 1 + rng.Intn(12)
					if op == 1 {
						n = len(mirror)/2 + rng.Intn(len(mirror)+2)
					}
					rows := chunkRows(rng, &next, n)
					if _, err := cat.Append("D", rows); err != nil {
						t.Fatal(err)
					}
					mirror = append(mirror[:len(mirror):len(mirror)], rows...)
					step = fmt.Sprintf("step %d: append %d", i, n)
				case 2, 3:
					col, key := "id", int64(rng.Intn(int(next)+1))
					if op == 3 {
						col, key = "grp", int64(rng.Intn(7))
					}
					n, err := cat.Delete("D", col, key)
					if err != nil {
						t.Fatal(err)
					}
					kept := trance.Bag{}
					off := map[string]int{"id": 0, "grp": 1}[col]
					for _, r := range mirror {
						if r.(trance.Tuple)[off] != key {
							kept = append(kept, r)
						}
					}
					if len(mirror)-len(kept) != n {
						t.Fatalf("step %d: delete %s=%d removed %d, mirror %d", i, col, key, n, len(mirror)-len(kept))
					}
					mirror = kept
					step = fmt.Sprintf("step %d: delete %s=%d (%d rows)", i, col, key, n)
				case 4:
					col := []string{"id", "grp", "val"}[rng.Intn(3)]
					kind := []string{"hash", "range", "both"}[rng.Intn(3)]
					if _, err := cat.CreateIndex("D", col, kind); err != nil {
						t.Fatal(err)
					}
					step = fmt.Sprintf("step %d: index %s %s", i, col, kind)
				case 5:
					cat.Drop("D")
					mirror = chunkRows(rng, &next, 50+rng.Intn(300))
					if err := cat.Register("D", chunkType(), mirror); err != nil {
						t.Fatal(err)
					}
					step = fmt.Sprintf("step %d: re-register %d", i, len(mirror))
				}
				check(step)
			}
		})
	}
}

func checkChunkStats(t *testing.T, step string, cat *trance.Catalog, data trance.Bag, bt nrc.BagType) {
	t.Helper()
	got, _ := cat.Stats("D")
	want := stats.Collect(data, bt, stats.Options{})
	if got.Rows != want.Rows || got.Bytes != want.Bytes || len(got.Columns) != len(want.Columns) {
		t.Fatalf("%s: stats rows/bytes %d/%d, collected %d/%d", step, got.Rows, got.Bytes, want.Rows, want.Bytes)
	}
	for i, w := range want.Columns {
		g := got.Columns[i]
		if g.Name != w.Name || g.NDV != w.NDV || g.Exact != w.Exact || g.Nulls != w.Nulls ||
			!value.Equal(g.Min, w.Min) || !value.Equal(g.Max, w.Max) {
			t.Fatalf("%s: column %s merged %+v, collected %+v", step, w.Name, g, w)
		}
	}
}

func checkChunkIndexes(t *testing.T, step string, cat *trance.Catalog, data trance.Bag) {
	t.Helper()
	set := trance.CatalogIndexes(cat, "D")
	offs := map[string]int{"id": 0, "grp": 1, "val": 2}
	for _, col := range set.Names() {
		ci := set.Column(col)
		vals := make([]value.Value, len(data))
		for i, r := range data {
			vals[i] = r.(trance.Tuple)[offs[col]]
		}
		fresh, err := index.Build(col, true, true, vals)
		if err != nil {
			t.Fatalf("%s: fresh build of %s: %v", step, col, err)
		}
		if ci.Len() != fresh.Len() || ci.Nulls() != fresh.Nulls() || ci.Keys() != fresh.Keys() {
			t.Fatalf("%s: index %s len/nulls/keys %d/%d/%d, fresh %d/%d/%d", step, col,
				ci.Len(), ci.Nulls(), ci.Keys(), fresh.Len(), fresh.Nulls(), fresh.Keys())
		}
		spans := [][]index.Span{{index.Point(int64(3))}, {index.Point(float64(2.5))}, {{}}}
		for _, v := range vals[:min(len(vals), 5)] {
			if v != nil {
				spans = append(spans, []index.Span{index.Point(v)})
			}
		}
		spans = append(spans, []index.Span{{Lo: int64(2), Hi: int64(40), LoInc: true}, index.Point(int64(45))})
		for _, ss := range spans {
			if got, want := ci.Lookup(ss), fresh.Lookup(ss); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: index %s lookup %s: %v, fresh build %v", step, col, index.FormatSpans(ss), got, want)
			}
		}
	}
}

func checkChunkShredding(t *testing.T, step string, cat *trance.Catalog, data trance.Bag, bt nrc.BagType) {
	t.Helper()
	const parts = 4
	comp, err := trance.CatalogInput(cat, "D", "D").Components(true, parts)
	if err != nil {
		t.Fatalf("%s: shredded rows: %v", step, err)
	}
	var top, items []value.Tuple
	for _, r := range comp.Rows[shred.MatName("D", nil)] {
		top = append(top, value.Tuple(r))
	}
	// Every dictionary row lies where an exchange on its label would put it.
	pl := comp.Placed[shred.MatName("D", []string{"items"})]
	if len(pl.Parts) != parts {
		t.Fatalf("%s: items placed over %d partitions, want %d", step, len(pl.Parts), parts)
	}
	for i, p := range pl.Parts {
		for j, r := range p {
			if h := value.HashCols(r, []int{0}); h%parts != uint64(i) || pl.Hashes[i][j] != h {
				t.Fatalf("%s: items row %s in partition %d with hash %d, its label hashes to %d", step, value.Format(value.Tuple(r)), i, pl.Hashes[i][j], h)
			}
			items = append(items, value.Tuple(r))
		}
	}
	got, err := shred.UnshredValue(top, map[string][]value.Tuple{"items": items}, bt)
	if err != nil {
		t.Fatalf("%s: unshred: %v", step, err)
	}
	if !value.Equal(got, data) {
		t.Fatalf("%s: bound components unshred to %d rows that differ from the data's %d", step, len(got), len(data))
	}
	seen := map[string]bool{}
	for _, r := range top {
		k := value.Key(r[3])
		if seen[k] {
			t.Fatalf("%s: label %s minted twice", step, value.Format(r[3]))
		}
		seen[k] = true
	}
}

// TestAppendAllocsFlatInRows pins an append's cost to the rows it adds: a
// 50-row Append allocates about as many objects on a 100 000-row dataset as
// on a 1 000-row one.
func TestAppendAllocsFlatInRows(t *testing.T) {
	const runs = 3
	allocs := func(n int) float64 {
		rng := rand.New(rand.NewSource(1))
		var next int64
		base := chunkRows(rng, &next, n)
		cat := trance.NewCatalog()
		for i := 0; i <= runs; i++ {
			if err := cat.Register(fmt.Sprint("D", i), chunkType(), base); err != nil {
				t.Fatal(err)
			}
		}
		tail := chunkRows(rng, &next, 50)
		i := 0
		return testing.AllocsPerRun(runs, func() {
			if _, err := cat.Append(fmt.Sprint("D", i), tail); err != nil {
				t.Fatal(err)
			}
			i++
		})
	}
	small, large := allocs(1000), allocs(100_000)
	t.Logf("50-row append: %.0f objects at 1 000 rows, %.0f at 100 000", small, large)
	if large > 1.5*small || math.IsNaN(large) {
		t.Fatalf("a 50-row append allocates %.0f objects at 100 000 rows, %.0f at 1 000", large, small)
	}
}

// TestChunkLabelBasesDoNotWrap: the last chunk label range a process has is
// used like any other, and the build after it fails instead of wrapping onto
// the ranges of chunks already numbered; the installed generation stays.
func TestChunkLabelBasesDoNotWrap(t *testing.T) {
	defer trance.SetChunksLeftForTest(1)()
	rng := rand.New(rand.NewSource(3))
	var next int64
	cat := trance.NewCatalog()
	if err := cat.Register("D", chunkType(), chunkRows(rng, &next, 40)); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Append("D", chunkRows(rng, &next, 5)); err != nil {
		t.Fatalf("the last label range: %v", err)
	}
	bases := trance.CatalogChunkBases(cat, "D")
	if len(bases) != 2 || bases[0] != 0 || bases[1] != (1<<31-1)<<32 {
		t.Fatalf("chunk label bases %v, want [0 %d]", bases, int64(1<<31-1)<<32)
	}
	before, _ := cat.Info("D")
	_, err := cat.Append("D", chunkRows(rng, &next, 5))
	if !errors.Is(err, trance.ErrLabelsExhausted) {
		t.Fatalf("append past the last label range: %v, want %v", err, trance.ErrLabelsExhausted)
	}
	after, _ := cat.Info("D")
	if after.Generation != before.Generation || after.Rows != before.Rows {
		t.Fatalf("failed append installed generation %d (%d rows), was %d (%d rows)", after.Generation, after.Rows, before.Generation, before.Rows)
	}
}

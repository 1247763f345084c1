package runner

import (
	"bytes"
	"context"
	"io"
	"testing"

	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/value"
)

// TestStitchOrdersInsideBags: two top rows that tie on every scalar and whose
// item bags differ only in the tags two levels down are ordered by those tags,
// as the nested value's canonical order ranks them; a row with no items and an
// item with no tags stitch to empty bags. Output reads the rows the reply
// writes, and Top reads the same run's top bag.
func TestStitchOrdersInsideBags(t *testing.T) {
	env := nrc.Env{"R": nrc.BagOf(nrc.Tup(
		"a", nrc.IntT,
		"items", nrc.BagOf(nrc.Tup("v", nrc.IntT, "tags", nrc.BagOf(nrc.Tup("t", nrc.IntT))))))}
	item := func(v int64, tags ...int64) value.Tuple {
		b := value.Bag{}
		for _, tg := range tags {
			b = append(b, value.Tuple{tg})
		}
		return value.Tuple{v, b}
	}
	inputs := map[string]value.Bag{"R": {
		value.Tuple{int64(1), value.Bag{item(1, 5), item(2)}},
		value.Tuple{int64(2), value.Bag{item(1, 3), item(2)}},
		value.Tuple{int64(3), value.Bag{}},
		value.Tuple{int64(4), value.Bag{item(1, 3, 4)}},
	}}
	x, it, tg := nrc.V("x"), nrc.V("it"), nrc.V("tg")
	q := func() nrc.Expr {
		return nrc.ForIn("x", nrc.V("R"), nrc.SingOf(nrc.Record(
			"k", nrc.C(int64(7)),
			"items", nrc.ForIn("it", nrc.P(x, "items"), nrc.SingOf(nrc.Record(
				"v", nrc.P(it, "v"),
				"tags", nrc.ForIn("tg", nrc.P(it, "tags"), nrc.SingOf(nrc.P(tg, "t")))))))))
	}
	items := func(is ...value.Tuple) value.Tuple {
		b := value.Bag{}
		for _, i := range is {
			b = append(b, value.Tuple{i[0], flatTags(i[1].(value.Bag))})
		}
		return value.Tuple{int64(7), b}
	}
	want := []value.Tuple{
		items(),
		items(item(1, 3), item(2)),
		items(item(1, 3, 4)),
		items(item(1, 5), item(2)),
	}
	run := func(strat Strategy) *Result {
		cfg := DefaultConfig()
		cq, err := CompileStep(q(), env, strat, cfg, nil, "Q")
		if err != nil {
			t.Fatal(err)
		}
		res := ExecuteBags(context.Background(), []*Compiled{cq}, inputs, NewRunContext(cfg), ExecOptions{})
		if res.Failed() {
			t.Fatal(res.Err)
		}
		return res
	}
	for _, strat := range []Strategy{Shred, ShredSkew} {
		res := run(strat)
		var all, first bytes.Buffer
		if _, total, err := res.WriteJSON(context.Background(), &all, 0, "", "\n"); err != nil || total != len(want) {
			t.Fatalf("%s: %d rows, %v", strat, total, err)
		}
		if _, _, err := res.WriteJSON(context.Background(), &first, 2, "", "\n"); err != nil || !bytes.HasPrefix(all.Bytes(), first.Bytes()) {
			t.Fatalf("%s: limit 2 is not a prefix of limit 0:\n%s\n%s", strat, first.Bytes(), all.Bytes())
		}
		rows, _, s := stitchTop(res.Output, 0)
		if s.resolved == 0 || s.depth != 2 {
			t.Fatalf("%s: %d labels resolved comparing, %d levels stitched; want some and 2", strat, s.resolved, s.depth)
		}
		collected := res.Output.CollectSorted()
		for i, w := range want {
			if !value.Equal(value.Tuple(rows[i]), w) || !value.Equal(value.Tuple(collected[i]), w) {
				t.Fatalf("%s: row %d stitched %s, Output.Collect %s, want %s", strat, i,
					value.Format(value.Tuple(rows[i])), value.Format(value.Tuple(collected[i])), value.Format(w))
			}
		}
		// The same run read shredded: its top bag, the rows stitched above
		// before their bags were.
		var top bytes.Buffer
		if _, total, err := res.Top().WriteJSON(context.Background(), &top, 0, "", "\n"); err != nil || total != len(want) || bytes.Equal(top.Bytes(), all.Bytes()) {
			t.Fatalf("%s: Top wrote %d rows (%v), the same bytes as the nested read: %t", strat, total, err, bytes.Equal(top.Bytes(), all.Bytes()))
		}
	}
}

// flatTags is the bag of scalars a bag of ⟨t⟩ tuples becomes.
func flatTags(b value.Bag) value.Bag {
	out := value.Bag{}
	for _, e := range b {
		out = append(out, e.(value.Tuple)[0])
	}
	return out
}

// TestStitchedReplyAllocs pins the allocation gain of stitching only the rows
// a reply returns: over 10 000 rows shaped like the benchmark's nested read
// (an id and a filtered bag of its three items), a run plus a 20-row reply
// allocates at least five times fewer objects than a run plus the whole
// stitched output (Output.Collect), on the same compiled query and bound
// inputs. Counting the output stitches nothing, so it allocates nothing.
func TestStitchedReplyAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("10 000-row runs")
	}
	env := nrc.Env{"D": nrc.BagOf(nrc.Tup(
		"id", nrc.IntT,
		"items", nrc.BagOf(nrc.Tup("k", nrc.IntT, "w", nrc.RealT))))}
	d := make(value.Bag, 10000)
	for i := range d {
		items := make(value.Bag, 3)
		for j := range items {
			items[j] = value.Tuple{int64(100 + (i*7+j*311)%900), float64(j) + 0.5}
		}
		d[i] = value.Tuple{int64(i), items}
	}
	r, it := nrc.V("r"), nrc.V("it")
	q := nrc.ForIn("r", nrc.V("D"), nrc.SingOf(nrc.Record(
		"id", nrc.P(r, "id"),
		"big", nrc.ForIn("it", nrc.P(r, "items"),
			nrc.IfThen(nrc.GeOf(nrc.P(it, "k"), nrc.C(int64(550))),
				nrc.SingOf(nrc.Record("k", nrc.P(it, "k"), "w", nrc.P(it, "w"))))))))
	cfg := DefaultConfig()
	cq, err := CompileStep(q, env, Shred, cfg, nil, "Q")
	if err != nil {
		t.Fatal(err)
	}
	prog := []*Compiled{cq}
	rows, idxs, err := NewInputs(map[string]value.Bag{"D": d}, env).Bind(prog, NewRunContext(cfg).Parallelism)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Result {
		res := Execute(context.Background(), prog, rows, idxs, NewRunContext(cfg), ExecOptions{})
		if res.Failed() {
			t.Fatal(res.Err)
		}
		return res
	}
	reply := testing.AllocsPerRun(5, func() {
		if n, _, err := run().WriteJSON(context.Background(), io.Discard, 20, "", "\n"); n != 20 || err != nil {
			t.Fatalf("reply wrote %d rows: %v", n, err)
		}
	})
	whole := testing.AllocsPerRun(5, func() {
		if n := len(run().Output.CollectSorted()); n != len(d) {
			t.Fatalf("output holds %d rows", n)
		}
	})
	t.Logf("run + 20-row reply: %.0f objects; run + whole stitched output: %.0f", reply, whole)
	if 5*reply > whole {
		t.Fatalf("run + 20-row reply allocates %.0f objects, run + whole stitched output %.0f: not 5x fewer", reply, whole)
	}
	res := run()
	if count := testing.AllocsPerRun(5, func() {
		if n := res.Output.Count(); n != int64(len(d)) {
			t.Fatalf("output holds %d rows", n)
		}
	}); count != 0 {
		t.Fatalf("Output.Count allocates %.0f objects on a shredded route; it should stitch nothing", count)
	}
}

package runner

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/plan"
	"github.com/trance-go/trance/internal/stats"
	"github.com/trance-go/trance/internal/tpch"
	"github.com/trance-go/trance/internal/value"
)

// replyTwice is res's reply for limit rendered two ways — streamed by
// WriteJSON, which writes a stitched output straight from the dictionaries,
// and RowEncoder.WriteRows over the rows Output.CollectTop stitches — failing
// the test unless they are the same bytes, rows and total.
func replyTwice(t *testing.T, what string, res *Result, limit int) string {
	t.Helper()
	var streamed, collected bytes.Buffer
	n, total, err := res.WriteJSON(context.Background(), &streamed, limit, "\n    ", ",")
	if err != nil {
		t.Fatalf("%s, limit %d: WriteJSON: %v", what, limit, err)
	}
	rows, ctotal, err := res.Output.CollectTop(limit)
	if err != nil {
		t.Fatalf("%s, limit %d: CollectTop: %v", what, limit, err)
	}
	if err := res.enc.WriteRows(&collected, rows, "\n    ", ","); err != nil {
		t.Fatal(err)
	}
	if n != len(rows) || total != ctotal || !bytes.Equal(streamed.Bytes(), collected.Bytes()) {
		t.Fatalf("%s, limit %d: WriteJSON wrote %d of %d rows\n%s\nWriteRows over CollectTop %d of %d\n%s",
			what, limit, n, total, streamed.Bytes(), len(rows), ctotal, collected.Bytes())
	}
	return streamed.String()
}

// itemsStats are the statistics of itemsInputMod(mod)'s rows, under which Auto
// resolves the items query, whose output has a bag column, to a shredded
// route.
func itemsStats(mod int) map[string]plan.TableEstimate {
	var d value.Bag
	for _, c := range [][2]int{{0, 300}, {300, 120}, {420, 60}} {
		d = append(d, itemsDataMod(c[0], c[1], mod)...)
	}
	return map[string]plan.TableEstimate{"D": stats.Collect(d, itemsEnv["D"].(nrc.BagType), stats.Options{}).Estimate()}
}

// runItemsWith is runItems compiled with statistics.
func runItemsWith(t *testing.T, mod int, strat Strategy) *Result {
	t.Helper()
	cfg := DefaultConfig()
	cq, err := CompileStep(itemsQuery(), itemsEnv, strat, cfg, itemsStats(mod), "Q")
	if err != nil {
		t.Fatal(err)
	}
	prog := []*Compiled{cq}
	comp, idxs, err := itemsInputMod(mod).Bind(prog, cfg.Parallelism)
	if err != nil {
		t.Fatal(err)
	}
	res := Execute(context.Background(), prog, comp, idxs, NewRunContext(cfg), ExecOptions{})
	if res.Failed() {
		t.Fatal(res.Err)
	}
	return res
}

// TestReplyStreamsWhatCollectTopStitches: on every strategy the reply
// WriteJSON streams is the bytes the encoder writes over CollectTop's rows, at
// limits 0, 1 and 20, over the items read — empty bags where no item passes
// the bound; ids modulo 300, whose ties the comparator breaks by demanding
// labels one at a time, and modulo 5, whose ties force the dictionary — over
// the same top rows with every third label NULL, and over a two-level read
// whose middle dictionary is read whole and whose bottom one is demanded.
func TestReplyStreamsWhatCollectTopStitches(t *testing.T) {
	for _, mod := range []int{300, 5} {
		for _, strat := range append(AllStrategies(), Auto) {
			what := fmt.Sprintf("%s, ids modulo %d", strat, mod)
			res := runItemsWith(t, mod, strat)
			if strat == Auto && !res.Strategy.IsShredded() {
				t.Fatalf("%s: auto chose %s for a query with a bag column", what, res.Strategy)
			}
			for _, limit := range []int{0, 1, 20} {
				if got := replyTwice(t, what, res, limit); limit != 1 && !strings.Contains(got, `"big":[]`) {
					t.Fatalf("%s, limit %d: no empty bag in\n%s", what, limit, got)
				}
			}
			if mod == 300 && res.Output.mat != nil {
				if _, _, s, err := StitchTop(res, 20); err != nil || s.DemandTies == 0 {
					t.Fatalf("%s: %d ties broken through demanded labels (%v), want some", what, s.DemandTies, err)
				}
			}
			if res.Output.mat == nil {
				continue
			}
			// The same top rows, every third one's label NULL: an empty bag.
			lbl := newStitcher(res.Output, 0).top.bags[0].cols[0]
			rows := res.Output.d.Collect()
			for i := range rows {
				if rows[i] = slices.Clone(rows[i]); i%3 == 0 {
					rows[i][lbl] = nil
				}
			}
			res.Output.d = NewRunContext(DefaultConfig()).FromRows(rows)
			for _, limit := range []int{0, 1, 20} {
				replyTwice(t, what+", NULL labels", res, limit)
			}
		}
	}

	env, inputs, q := twoLevelRead()
	for _, strat := range append(AllStrategies(), Auto) {
		cfg := DefaultConfig()
		cfg.BroadcastLimit = 0
		cq, err := CompileStep(q, env, strat, cfg, nil, "Q")
		if err != nil {
			t.Fatal(err)
		}
		res := ExecuteBags(context.Background(), []*Compiled{cq}, inputs, NewRunContext(cfg), ExecOptions{})
		if res.Failed() {
			t.Fatal(res.Err)
		}
		for _, limit := range []int{0, 1, 20} {
			replyTwice(t, fmt.Sprintf("%s, two levels", strat), res, limit)
		}
	}
}

// twoLevelRead is TestStitchFindsEachRowOnce's read: per R row its items that
// join S, each with its tags; shredded with no broadcast the items
// dictionary is read whole and the tags one below it is deferred.
func twoLevelRead() (nrc.Env, map[string]value.Bag, nrc.Expr) {
	env := nrc.Env{
		"R": nrc.BagOf(nrc.Tup(
			"a", nrc.IntT,
			"items", nrc.BagOf(nrc.Tup("v", nrc.IntT, "tags", nrc.BagOf(nrc.Tup("t", nrc.IntT)))))),
		"S": nrc.BagOf(nrc.Tup("k", nrc.IntT)),
	}
	var r value.Bag
	for a := int64(1); a <= 30; a++ {
		var items value.Bag
		for v := range a % 4 {
			var tags value.Bag
			for tg := range (a + v) % 3 {
				tags = append(tags, value.Tuple{10*a + tg})
			}
			items = append(items, value.Tuple{v, tags})
		}
		r = append(r, value.Tuple{a % 7, items})
	}
	inputs := map[string]value.Bag{"R": r, "S": {value.Tuple{int64(0)}, value.Tuple{int64(2)}}}
	x, it, s, tg := nrc.V("x"), nrc.V("it"), nrc.V("s"), nrc.V("tg")
	q := nrc.ForIn("x", nrc.V("R"), nrc.SingOf(nrc.Record(
		"a", nrc.P(x, "a"),
		"items", nrc.ForIn("it", nrc.P(x, "items"), nrc.ForIn("s", nrc.V("S"), nrc.IfThen(nrc.EqOf(nrc.P(it, "v"), nrc.P(s, "k")),
			nrc.SingOf(nrc.Record(
				"v", nrc.P(it, "v"),
				"tags", nrc.ForIn("tg", nrc.P(it, "tags"), nrc.SingOf(nrc.Record("t", nrc.P(tg, "t"))))))))))))
	return env, inputs, q
}

// TestNullInputBagRepliesEmpty: a NULL where the input holds a bag — JSON's
// null for an array — is the empty bag on every route: the shredded routes,
// and auto, which takes one for this nested output, reply what standard does
// instead of failing to shred the input.
func TestNullInputBagRepliesEmpty(t *testing.T) {
	data := value.Bag{
		value.Tuple{int64(1), nil},
		value.Tuple{int64(2), value.Bag{value.Tuple{int64(600), 1.5}}},
		value.Tuple{int64(3), value.Bag{}},
	}
	r := nrc.V("r")
	q := nrc.ForIn("r", nrc.V("D"), nrc.SingOf(nrc.Record("id", nrc.P(r, "id"), "items", nrc.P(r, "items"))))
	ests := map[string]plan.TableEstimate{"D": stats.Collect(data, itemsEnv["D"].(nrc.BagType), stats.Options{}).Estimate()}
	var want string
	for _, strat := range append(AllStrategies(), Auto) {
		cq, err := CompileStep(q, itemsEnv, strat, DefaultConfig(), ests, "Q")
		if err != nil {
			t.Fatal(err)
		}
		res := ExecuteBags(context.Background(), []*Compiled{cq}, map[string]value.Bag{"D": data}, NewRunContext(DefaultConfig()), ExecOptions{})
		if res.Failed() {
			t.Fatalf("%s: %v", strat, res.Err)
		}
		if strat == Auto && !res.Strategy.IsShredded() {
			t.Fatalf("auto chose %s for a query with a bag column", res.Strategy)
		}
		got := replyTwice(t, strat.String(), res, 0)
		if want == "" {
			want = got
		}
		if got != want || !strings.Contains(got, `{"id":1,"items":[]}`) {
			t.Fatalf("%s replied\n%s\nstandard\n%s", strat, got, want)
		}
	}
}

// TestFailingDeferredReplyWritesNothing: when the deferred statement a reply
// demands of fails, WriteJSON returns its failure before writing a byte, at
// every limit, and CollectTop returns it too.
func TestFailingDeferredReplyWritesNothing(t *testing.T) {
	for _, strat := range []Strategy{Shred, ShredSkew} {
		for _, limit := range []int{0, 1, 20} {
			res := runItems(t, itemsInputMod(300), strat, DefaultConfig(), ExecOptions{})
			d := res.deferred["Q__big"]
			if d == nil {
				t.Fatalf("%s: Q__big is not deferred", strat)
			}
			d.st.Plan = &plan.Scan{Input: "gone"} // its source is unbound: the statement fails
			var w spyWriter
			if _, _, err := res.WriteJSON(context.Background(), &w, limit, "", "\n"); err == nil || w.writes != 0 {
				t.Fatalf("%s, limit %d: a failing deferred statement gave %v after %d writes", strat, limit, err, w.writes)
			}
			if _, _, err := res.Output.CollectTop(limit); err == nil {
				t.Fatalf("%s, limit %d: CollectTop read past a failing deferred statement", strat, limit)
			}
		}
	}
}

// servedF2N runs the level-2 flat-to-nested read over 300 customers at skew 3,
// the data `tranced -customers 300 -skew 3` serves, planned with its
// statistics, on strat: each call of the function returned runs it once more.
func servedF2N(t *testing.T, strat Strategy) func() *Result {
	t.Helper()
	tables := tpch.Generate(tpch.Config{Customers: 300, OrdersPerCustomer: 6, LinesPerOrder: 4, Parts: 100, SkewFactor: 3, Seed: 1})
	inputs := tables.Inputs()
	env := tpch.Env(tpch.FlatToNested, 2, false)
	ests := map[string]plan.TableEstimate{}
	for name, typ := range env {
		ests[name] = stats.Collect(inputs[name], typ.(nrc.BagType), stats.Options{}).Estimate()
	}
	cfg := DefaultConfig()
	cq, err := CompileStep(tpch.Query(tpch.FlatToNested, 2, false), env, strat, cfg, ests, "Q")
	if err != nil {
		t.Fatal(err)
	}
	prog := []*Compiled{cq}
	comp, idxs, err := BindBags(prog, inputs, cfg.Parallelism)
	if err != nil {
		t.Fatal(err)
	}
	return func() *Result {
		res := Execute(context.Background(), prog, comp, idxs, NewRunContext(cfg), ExecOptions{})
		if res.Failed() {
			t.Fatal(res.Err)
		}
		return res
	}
}

// TestNestedReplyAllocs pins the nested reply's bytes: a run of the level-2
// flat-to-nested read, shredded and skew-aware, at skew 3 over 300 customers,
// plus a 20-row reply, allocated 4.00 MB when the reply built every stitched
// bag it wrote and grew its buffer to hold the heavy customer's row. Written
// from the dictionaries, through a buffer flushed inside the row, it
// allocates at most 60 % of that.
func TestNestedReplyAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the served route")
	}
	run := servedF2N(t, ShredSkew)
	const before = 4.00e6
	got := allocBytes(5, func() {
		if _, _, err := run().WriteJSON(context.Background(), io.Discard, 20, "\n    ", ","); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("run + 20-row reply: %.2f MB", got/1e6)
	if got > 0.6*before {
		t.Fatalf("run + 20-row nested reply allocates %.2f MB, want at most 60 %% of %.2f MB", got/1e6, before/1e6)
	}
}

// allocBytes is the bytes the process allocates per call of fn, once it has
// run fn once.
func allocBytes(n int, fn func()) float64 {
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestReplyStreamsInsideARow: the heavy customer's row of the skewed read,
// far larger than the flush size, reaches the writer in several writes, none
// much larger than that, both written from the dictionaries and from a
// standard route's values.
func TestReplyStreamsInsideARow(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the served route")
	}
	for _, strat := range []Strategy{ShredSkew, StandardSkew} {
		res := servedF2N(t, strat)()
		var w spyWriter
		if _, _, err := res.WriteJSON(context.Background(), &w, 0, "", "\n"); err != nil {
			t.Fatal(err)
		}
		if w.row < 300<<10 || w.writes < 10 || w.largest > 33<<10 {
			t.Fatalf("%s: the largest row is %d bytes; the reply arrived in %d writes, the largest %d bytes", strat, w.row, w.writes, w.largest)
		}
	}
}

// spyWriter records the writes it is handed and the longest row between
// newlines.
type spyWriter struct{ writes, largest, row, cur int }

func (w *spyWriter) Write(p []byte) (int, error) {
	w.writes++
	w.largest = max(w.largest, len(p))
	for _, c := range p {
		if c == '\n' {
			w.cur = 0
			continue
		}
		w.cur++
		w.row = max(w.row, w.cur)
	}
	return len(p), nil
}

package ingest_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"testing"

	"github.com/trance-go/trance/internal/ingest"
	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/runner"
	"github.com/trance-go/trance/internal/tpch"
	"github.com/trance-go/trance/internal/value"
)

// replyRows runs a TPC-H query and returns the first limit rows (0 = all) of
// its reply with their schema — what the reply path is handed.
func replyRows(tb testing.TB, class tpch.QueryClass, level, skew, limit int) ([]value.Tuple, []nrc.Field) {
	tb.Helper()
	tables := tpch.Generate(tpch.Config{Customers: 100, OrdersPerCustomer: 6, LinesPerOrder: 4, Parts: 100, SkewFactor: skew, Seed: 1})
	inputs := tables.Inputs()
	if class != tpch.FlatToNested {
		inputs = map[string]value.Bag{"NDB": tpch.BuildNested(tables, level, true), "Part": tables.Part}
	}
	res := runQuery(tpch.Query(class, level, false), tpch.Env(class, level, false), inputs, runner.Standard, runner.DefaultConfig())
	if res.Failed() {
		tb.Fatal(res.Err)
	}
	rows, _, err := res.Output.CollectTop(limit)
	if err != nil {
		tb.Fatal(err)
	}
	return rows, res.Columns
}

// The reply path allocates nothing per reply once its buffer is pooled: the
// 600 nested rows of adhoc_serve's nested_full go from engine rows to bytes
// without a map, a boxed value or a string in between.
func TestReplyEncodeAllocatesNothing(t *testing.T) {
	rows, cols := replyRows(t, tpch.NestedToNested, 1, 0, 0)
	if len(rows) != 600 {
		t.Fatalf("%d rows, want the 600 of nested-to-nested level 1 over 100 customers", len(rows))
	}
	enc := ingest.NewRowEncoder(cols)
	encode := func() {
		if err := enc.WriteRows(io.Discard, rows, "\n    ", ","); err != nil {
			t.Fatal(err)
		}
	}
	encode() // warm the buffer pool
	if allocs := testing.AllocsPerRun(50, encode); allocs != 0 {
		t.Fatalf("encoding a warmed 600-row nested reply allocates %v times, want 0", allocs)
	}
}

// BenchmarkReplyEncode renders two replies of the serving benchmark — all 600
// nested-to-nested level-1 rows (adhoc_serve's nested_full) and the top 20 of
// flat-to-nested at skew 3, whose heavy customers make each row large — the
// way the reply path did (EncodeRows maps through the indenting reflective
// encoder) and through RowEncoder. MB/s is over each side's own output.
func BenchmarkReplyEncode(b *testing.B) {
	for _, reply := range []struct {
		name         string
		class        tpch.QueryClass
		level, skew  int
		limit, count int
	}{
		{"n2n-L1-600rows", tpch.NestedToNested, 1, 0, 0, 600},
		{"f2n-L2-skew3-top20", tpch.FlatToNested, 2, 3, 20, 20},
	} {
		rows, cols := replyRows(b, reply.class, reply.level, reply.skew, reply.limit)
		if len(rows) != reply.count {
			b.Fatalf("%s: %d rows, want %d", reply.name, len(rows), reply.count)
		}
		b.Run(reply.name+"/maps+indent", func(b *testing.B) {
			var buf bytes.Buffer
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				enc := json.NewEncoder(&buf)
				enc.SetIndent("", "  ")
				if err := enc.Encode(map[string]any{"results": ingest.EncodeRows(rows, cols)}); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(buf.Len()))
		})
		b.Run(reply.name+"/encoder", func(b *testing.B) {
			enc := ingest.NewRowEncoder(cols)
			var buf bytes.Buffer
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := enc.WriteRows(&buf, rows, "\n    ", ","); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(buf.Len()))
		})
	}
}

// runQuery compiles q through runner, planning without statistics, and runs
// it over nested inputs.
func runQuery(q nrc.Expr, env nrc.Env, inputs map[string]value.Bag, strat runner.Strategy, cfg runner.Config) *runner.Result {
	cq, err := runner.CompileStep(q, env, strat, cfg, nil, "Q")
	if err != nil {
		return runner.Failure(strat, err)
	}
	prog := []*runner.Compiled{cq}
	dctx := runner.NewRunContext(cfg)
	rows, idxs, err := runner.NewInputs(inputs, env).Bind(prog, dctx.Parallelism)
	if err != nil {
		return runner.Failure(strat, err)
	}
	return runner.Execute(context.Background(), prog, rows, idxs, dctx, runner.ExecOptions{})
}

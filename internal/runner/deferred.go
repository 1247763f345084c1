package runner

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/trance-go/trance/internal/dataflow"
	"github.com/trance-go/trance/internal/exec"
	"github.com/trance-go/trance/internal/plan"
	"github.com/trance-go/trance/internal/trace"
	"github.com/trance-go/trance/internal/value"
)

// deferred is a dictionary statement Execute left unforced (Stmt.src). A
// reader of the whole dictionary forces it once; a limited read demands the
// rows of the labels it returns, from any number of goroutines at once. Both
// run the statement's plan on an executor of their own over the datasets the
// run bound: a force on the run's context, whose metrics it joins, over the
// whole source, a demand on a context of its own over the source's rows of
// those labels alone.
type deferred struct {
	st  Stmt
	src *labelSource
	// pd is the placed input dictionary the label's rows come from, or flat
	// the rows of the flat input a minted label's do, and keys their index.
	pd   *PlacedDict
	flat []dataflow.Row
	keys *rowKeys
	// ctx and skew are the run's, inputs the datasets it bound st's scans to.
	ctx    *dataflow.Context
	skew   bool
	inputs map[string]*dataflow.Dataset

	once sync.Once
	full *dataflow.Dataset
	err  error
	took time.Duration // what a force after Execute took, outside Elapsed
	// labels and rows count what limited reads demanded: labels and the
	// input rows selected for them (EXPLAIN ANALYZE).
	labels, rows atomic.Int64
}

// bind readies d to run st over the datasets ex binds its scans to now. An
// analyzed run forces it at once on ex, as it runs every statement, so every
// operator reports the rows it produced, within the step's time.
func (d *deferred) bind(ctx context.Context, ex *exec.Executor, st Stmt, sp *trace.Span) error {
	d.st, d.ctx, d.skew, d.inputs = st, ex.Ctx, ex.SkewAware, map[string]*dataflow.Dataset{}
	walkPlan(st.Plan, func(op plan.Op) {
		if sc, ok := op.(*plan.Scan); ok && ex.Inputs[sc.Input] != nil {
			d.inputs[sc.Input] = ex.Inputs[sc.Input]
		}
	})
	if ex.Analysis != nil {
		if d.inputs[d.src.input] == nil {
			ex.Bind(d.src.input, ex.Ctx.FromPlaced(d.pd.Whole()))
		}
		d.once.Do(func() { d.full, d.err = runStmt(ctx, ex, st, sp) })
	}
	return d.err
}

// force materializes the whole dictionary, once.
func (d *deferred) force() error {
	d.once.Do(func() {
		start := time.Now()
		src := d.inputs[d.src.input]
		if src == nil {
			src = d.ctx.FromPlaced(d.pd.Whole())
		}
		d.full, d.err = d.run(d.ctx, src)
		d.took = time.Since(start)
	})
	return d.err
}

// demand returns the dictionary's rows of the distinct labels lbls, in the
// order a force leaves them: the statement run over the source's rows of
// those labels alone, each label's in their partition and order. Every
// operator of a deferred plan is partition-local, keeps the order of its
// input rows and computes a label's rows from that label's alone, so those
// are the rows a force leaves. When those source rows are most of its rows,
// it runs nothing and reports most: a force, which reads them in order,
// costs less.
func (d *deferred) demand(lbls []value.Value) (rows []dataflow.Row, most bool, err error) {
	parts, n, most := d.selectRows(lbls)
	if most || n == 0 {
		return nil, most, nil
	}
	d.labels.Add(int64(len(lbls)))
	d.rows.Add(int64(n))
	ctx := dataflow.NewContext(d.ctx.Parallelism)
	ctx.Pool, ctx.BroadcastLimit = d.ctx.Pool, d.ctx.BroadcastLimit
	out, err := d.run(ctx, ctx.FromPartitions(parts))
	if err != nil {
		return nil, false, err
	}
	return out.Collect(), false, nil
}

// labelsAtMost is how many labels the source's rows carry at most: the distinct
// payloads of a minted label, the labels value shredding minted for a placed
// dictionary's chunks.
func (d *deferred) labelsAtMost() int {
	if d.src.minted {
		return len(d.keys.positions(d.flat, d.src.args))
	}
	n := 0
	for _, c := range d.pd.Chunks {
		n += int(c.Labels)
	}
	return n
}

// run runs the statement on a new executor over ctx, its source bound to src.
func (d *deferred) run(ctx *dataflow.Context, src *dataflow.Dataset) (*dataflow.Dataset, error) {
	ex := newExecutor(ctx, d.skew, d.inputs)
	ex.Inputs[d.src.input] = src
	out, err := ex.Run(d.st.Plan)
	if err == nil {
		err = out.Force().Err()
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", d.st.Label, err)
	}
	return out, nil
}

// selectRows is the source's rows of the labels lbls, each label's in the
// partition and order the run binds them in, and how many there are, or, with
// nothing selected, most: they are more than half its rows. A placed
// dictionary's rows of a label are one run of the partition it hashes to, in
// the chunk that minted it (PlacedDict.find); a minted label's are the flat
// input's rows whose payload columns equal its payload as keys do
// (value.EqualCols: NULL equals NULL), found through the input's index on
// those columns, and a label of another site labels no row.
func (d *deferred) selectRows(lbls []value.Value) (parts [][]dataflow.Row, n int, most bool) {
	np := d.ctx.Parallelism
	parts = make([][]dataflow.Row, np)
	if !d.src.minted {
		type span struct{ part, chunk, lo, hi int }
		var spans []span
		for _, lbl := range lbls {
			part := int(value.Hash64(lbl) % uint64(np))
			if c, lo, hi := d.pd.find(part, lbl); lo < hi {
				spans, n = append(spans, span{part, c, lo, hi}), n+hi-lo
			}
		}
		whole := 0
		for _, c := range d.pd.Chunks {
			for _, p := range c.Parts {
				whole += len(p)
			}
		}
		if 2*n > whole {
			return nil, 0, true
		}
		for _, s := range spans {
			parts[s.part] = append(parts[s.part], d.pd.Chunks[s.chunk].Parts[s.part][s.lo:s.hi]...)
		}
		return parts, n, false
	}
	payload := make([]int, len(d.src.args))
	for i := range payload {
		payload[i] = i
	}
	// The index's candidates of each label, counted before a row is read.
	at := d.keys.positions(d.flat, d.src.args)
	var cands [][]int32
	var pays []value.Tuple
	for _, lbl := range lbls {
		if l, ok := lbl.(value.Label); ok && l.Site == d.src.site && len(l.Payload) == len(payload) {
			c := at[value.HashCols(l.Payload, payload)]
			cands, pays, n = append(cands, c), append(pays, l.Payload), n+len(c)
		}
	}
	if 2*n > len(d.flat) {
		return nil, 0, true
	}
	n, per := 0, (len(d.flat)+np-1)/np // FromRows' contiguous ranges
	for k, c := range cands {
		for _, i := range c {
			if value.EqualCols(d.flat[i], d.src.args, pays[k], payload) {
				parts[int(i)/per] = append(parts[int(i)/per], d.flat[i])
				n++
			}
		}
	}
	return parts, n, false
}

package runner

import (
	"bytes"
	"context"

	"github.com/trance-go/trance/internal/dataflow"
	"github.com/trance-go/trance/internal/index"
	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/plan"
	"github.com/trance-go/trance/internal/value"
)

// CompileProgram compiles every step of a program against the base
// environment extended with the prior steps' outputs, costed against stats,
// as the root package's plan-cache loop does, without the cache.
func CompileProgram(steps []nrc.Assignment, env nrc.Env, strat Strategy, cfg Config, stats map[string]plan.TableEstimate) ([]*Compiled, error) {
	envs, _, err := ResolveSteps(steps, env)
	if err != nil {
		return nil, err
	}
	prog := make([]*Compiled, len(steps))
	for i, st := range steps {
		eff := StepStrategy(strat, prog[0])
		if prog[i], err = CompileStep(st.Expr, envs[i], eff, cfg, stats, st.Name); err != nil {
			return nil, &StepError{Step: i, Name: st.Name, Err: err}
		}
	}
	return prog, nil
}

// Explain is the one-step Explain.
func (cq *Compiled) Explain() string { return Explain([]*Compiled{cq}) }

// ExecuteBags binds nested inputs, one chunk each, under the types of prog's
// environment with an index on every column the statistics prog was costed
// against flag Indexed (IndexChunks), as a catalog generation holds them, and
// executes prog on dctx.
func ExecuteBags(ctx context.Context, prog []*Compiled, inputs map[string]value.Bag, dctx *dataflow.Context, opts ExecOptions) *Result {
	rows, idxs, err := BindBags(prog, inputs, dctx.Parallelism)
	if err != nil {
		return Failure(prog[len(prog)-1].Strategy, err)
	}
	return Execute(ctx, prog, rows, idxs, dctx, opts)
}

// BindBags is what ExecuteBags binds for prog over parts partitions.
func BindBags(prog []*Compiled, inputs map[string]value.Bag, parts int) (Components, map[string]*index.Set, error) {
	ins := Inputs{}
	for name, b := range inputs {
		t := prog[0].Env[name]
		chunks := []*Chunk{NewChunk(b, t, 0)}
		set := index.NewSet()
		for col, ce := range prog[0].stats[name].Cols {
			if !ce.Indexed {
				continue
			}
			ci, err := IndexChunks(chunks, col)
			if err != nil {
				return Components{}, nil, err
			}
			set.Put(ci)
		}
		ins[name] = NewInput(name, t, chunks, set)
	}
	return ins.Bind(prog, parts)
}

// RunProgram compiles a program (CompileProgram) and executes it over nested
// inputs (ExecuteBags); a query is the one-step program.
func RunProgram(steps []nrc.Assignment, env nrc.Env, inputs map[string]value.Bag, strat Strategy, cfg Config, stats map[string]plan.TableEstimate) *Result {
	prog, err := CompileProgram(steps, env, strat, cfg, stats)
	if err != nil {
		return Failure(strat, err)
	}
	return ExecuteBags(context.Background(), prog, inputs, NewRunContext(cfg), ExecOptions{})
}

// StitchStats is what one stitched read did: the label pairs its comparator
// stitched, those of them demanded of a deferred dictionary, the deepest
// dictionary level it stitched a bag from, the input rows it selected for
// deferred statements beside the rows of the inputs they read, and those of
// them selected for statements whose label is minted from a flat input's
// columns and for statements holding a ⋈, Γ or dedup.
type StitchStats struct{ Resolved, DemandTies, Depth, Demanded, Held, MintedRows, WideRows int }

// StitchTop is Output.CollectTop(limit) on a shredded route, beside what the
// read did. Run it on one goroutine: it reads the demand counters of r's
// deferred dictionaries before and after.
func StitchTop(r *Result, limit int) (rows []dataflow.Row, total int, st StitchStats, err error) {
	before := map[*deferred]int64{}
	for _, d := range r.deferred {
		before[d] = d.rows.Load()
	}
	rows, total, s := stitchTop(r.Output, limit)
	st = StitchStats{Resolved: s.resolved, DemandTies: s.demandTies, Depth: s.depth}
	for _, d := range r.deferred {
		n := int(d.rows.Load() - before[d])
		st.Demanded += n
		if d.src.minted {
			st.MintedRows += n
		}
		wide := false
		walkPlan(d.st.Plan, func(op plan.Op) {
			switch op.(type) {
			case *plan.Join, *plan.Nest, *plan.DedupOp:
				wide = true
			}
		})
		if wide {
			st.WideRows += n
		}
		if d.pd == nil {
			st.Held += len(d.flat)
			continue
		}
		for _, c := range d.pd.Chunks {
			for _, p := range c.Parts {
				st.Held += len(p)
			}
		}
	}
	return rows, total, st, s.err
}

// DeferredRan reports what ran of r's deferred statements: how many were
// forced and how many labels limited reads demanded of them.
func DeferredRan(r *Result) (deferred, forced int, labels int64) {
	for _, d := range r.deferred {
		if d.full != nil {
			forced++
		}
		labels += d.labels.Load()
	}
	return len(r.deferred), forced, labels
}

// ReplyTwoWays is r's reply for limit written as a reply is — WriteJSON,
// which streams a stitched output from its dictionaries — and as the encoder
// writes the rows Output.CollectTop returns.
func ReplyTwoWays(r *Result, limit int) (streamed, collected []byte, err error) {
	var s, c bytes.Buffer
	if _, _, err := r.WriteJSON(context.Background(), &s, limit, "", "\n"); err != nil {
		return nil, nil, err
	}
	rows, _, err := r.Output.CollectTop(limit)
	if err != nil {
		return nil, nil, err
	}
	if err := r.enc.WriteRows(&c, rows, "", "\n"); err != nil {
		return nil, nil, err
	}
	return s.Bytes(), c.Bytes(), nil
}

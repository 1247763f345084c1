package runner

import (
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
	fail := func(err error) *Result { return Failure(prog[len(prog)-1].Strategy, err) }
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
				return fail(err)
			}
			set.Put(ci)
		}
		ins[name] = NewInput(name, t, chunks, set)
	}
	rows, idxs, err := ins.Bind(prog, dctx.Parallelism)
	if err != nil {
		return fail(err)
	}
	return Execute(ctx, prog, rows, idxs, dctx, opts)
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

// StitchTop is Output.CollectTop(limit) on a shredded route, beside the
// label pairs its comparator stitched and the deepest dictionary level it
// stitched a bag from.
func StitchTop(r *Result, limit int) (rows []dataflow.Row, total, resolved, depth int) {
	rows, total, s := stitchTop(r.Output, limit)
	return rows, total, s.resolved, s.depth
}

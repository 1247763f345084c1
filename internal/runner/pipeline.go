package runner

import (
	"context"
	"fmt"

	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/value"
)

// PipelineStep is one constituent query of a multi-step pipeline; it may
// reference the outputs of earlier steps by name.
type PipelineStep struct {
	Name  string
	Query nrc.Expr
}

// StepError tags a pipeline typecheck/compile failure with the step it
// occurred in, so callers can report "step 2 of 5" without parsing messages.
type StepError struct {
	Step int
	Name string
	Err  error
}

func (e *StepError) Error() string {
	return fmt.Sprintf("step %s (#%d): %v", e.Name, e.Step+1, e.Err)
}

func (e *StepError) Unwrap() error { return e.Err }

// ResolveSteps typechecks the steps in order against the base environment
// and returns, per step, the environment the step compiles against (the base
// env plus the output types of every prior step) and the step's checked
// output type. These per-step environments are what makes prepared-pipeline
// fingerprints env-aware: a step's cache key covers the resolved types of the
// outputs it consumes.
func ResolveSteps(steps []PipelineStep, env nrc.Env) (envs []nrc.Env, outs []nrc.Type, err error) {
	if len(steps) == 0 {
		return nil, nil, fmt.Errorf("pipeline has no steps")
	}
	scope := nrc.Env{}
	for k, v := range env {
		scope[k] = v
	}
	for i, st := range steps {
		if st.Name == "" {
			return nil, nil, &StepError{Step: i, Name: "?", Err: fmt.Errorf("step has no name")}
		}
		if _, dup := scope[st.Name]; dup {
			return nil, nil, &StepError{Step: i, Name: st.Name, Err: fmt.Errorf("name already bound")}
		}
		t, err := nrc.Check(st.Query, scope)
		if err != nil {
			return nil, nil, &StepError{Step: i, Name: st.Name, Err: err}
		}
		stepEnv := nrc.Env{}
		for k, v := range scope {
			stepEnv[k] = v
		}
		envs = append(envs, stepEnv)
		outs = append(outs, t)
		scope[st.Name] = t
	}
	return envs, outs, nil
}

// StepStrategy is the effective strategy for one step of a program. Auto
// resolves once, at the first step (first is its compilation, nil while
// compiling it): later steps read its output in the representation its route
// left bound — nested or shredded — so they follow that route. Intermediate
// steps of an unshredding program stay shredded (their consumers read the
// shredded components directly); only the last step pays for unshredding.
func StepStrategy(strat Strategy, first *Compiled, last bool) Strategy {
	if strat == Auto && first != nil {
		strat = first.Strategy
	}
	if last || !strat.unshreds() {
		return strat
	}
	if strat == ShredUnshredSkew {
		return ShredSkew
	}
	return Shred
}

// CompilePipeline typechecks and compiles every step up front (each against
// the base env extended with prior outputs) into the program Execute runs.
// Serving paths that run the same program repeatedly compile the steps through
// a plan cache instead — the root package's Prepare/PreparePipeline do.
func CompilePipeline(steps []PipelineStep, env nrc.Env, strat Strategy, cfg Config) ([]*Compiled, error) {
	envs, _, err := ResolveSteps(steps, env)
	if err != nil {
		return nil, err
	}
	prog := make([]*Compiled, len(steps))
	for i, st := range steps {
		eff := StepStrategy(strat, prog[0], i == len(steps)-1)
		if prog[i], err = CompileStep(st.Query, envs[i], eff, cfg, st.Name); err != nil {
			return nil, &StepError{Step: i, Name: st.Name, Err: err}
		}
	}
	return prog, nil
}

// RunPipeline executes the steps in order under one strategy, binding each
// step's output as an input of later steps: one-shot compile + execute.
// Serving paths should use the root package's PreparePipeline, which reuses
// the process-wide plan cache across calls.
func RunPipeline(steps []PipelineStep, env nrc.Env, inputs map[string]value.Bag, strat Strategy, cfg Config) *Result {
	prog, err := CompilePipeline(steps, env, strat, cfg)
	if err != nil {
		return Failure(strat, err)
	}
	return ExecuteInputs(context.Background(), prog, inputs, NewRunContext(cfg, strat), ExecOptions{})
}

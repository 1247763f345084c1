package runner

import (
	"fmt"

	"github.com/trance-go/trance/internal/nrc"
)

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

// ResolveSteps typechecks the steps of a program (a query is the one-step
// program) in order against the base environment and returns, per step, the
// environment the step compiles against (the base env plus the output types of
// every prior step) and the step's checked output type. These per-step
// environments are what makes prepared-program fingerprints env-aware: a
// step's cache key covers the resolved types of the outputs it consumes. A
// step name already bound — an input's or an earlier step's — is rejected.
func ResolveSteps(steps []nrc.Assignment, env nrc.Env) (envs []nrc.Env, outs []nrc.Type, err error) {
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
		t, err := nrc.Check(st.Expr, scope)
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

// StepStrategy is the strategy one step of a program compiles under. Auto
// resolves once, at the first step (first is its compilation, nil while
// compiling it): later steps read its output in the representation its route
// left bound — nested or shredded — so they follow that route. Every other
// strategy compiles every step as itself.
func StepStrategy(strat Strategy, first *Compiled) Strategy {
	if strat == Auto && first != nil {
		return first.Strategy
	}
	return strat
}

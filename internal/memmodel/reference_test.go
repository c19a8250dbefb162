package memmodel

import (
	"rats/internal/core"
	"rats/internal/litmus"
	"rats/internal/memmodel/telemetry"
)

// checkTwoPhase is the memo-free two-phase reference for CheckProgram: it
// enumerates every SC execution of the quantum-equivalent program into a
// slice (without the order memo), then analyzes them serially with one
// analyzer into one verdict shard. It makes the same telemetry
// calls on tel (nil disables them) as the checker, so the two must agree
// on the verdict and on the deterministic telemetry Record.
func checkTwoPhase(p0 *litmus.Program, m core.Model, tel *telemetry.Check) (*Verdict, error) {
	p := p0.Under(m)
	kinds := forbiddenKinds(m)
	tel.Begin(DefaultLimit)
	execs, err := Enumerate(p, EnumOptions{Quantum: true, Telemetry: tel})
	if err != nil {
		tel.Finish(stateForErr(err))
		return nil, err
	}
	pv := newPartialVerdict()
	an := new(analyzer)
	w := tel.Worker()
	for _, ex := range execs {
		pv.add(an.Analyze(ex), kinds)
		w.IncAnalyzed()
	}
	v := finishVerdict(p0.Name, m, []*partialVerdict{pv}, tel)
	tel.Finish(telemetry.StateDone)
	return v, nil
}

package main

import (
	"fmt"
	"math"

	"xplace"
	"xplace/internal/serve"
)

// stopOverflow is the GP stop target (sched.Options.StopOverflow default):
// a converged placement ends at or below it.
const stopOverflow = 0.07

// hpwlTolerance is how far, as a share, a flow's final HPWL may sit from
// the value recorded for its seed. It is a tolerance, not bit-identity:
// detailed placement iterates a map, so reruns on one input differ in the
// 5th digit, and the GP reduction order follows the engine worker count,
// so a machine with another core count lands on a slightly different
// trajectory.
const hpwlTolerance = 0.02

// checkFlow validates one Flow call: it returned, the final placement is
// legal, GP reached the overflow target, and the final HPWL is within
// hpwlTolerance of ref (skipped when ref is 0).
func checkFlow(fr *xplace.FlowResult, err error, ref float64) error {
	if err != nil {
		return err
	}
	if fr.Violations != 0 {
		return fmt.Errorf("%d legality violations", fr.Violations)
	}
	if fr.GP == nil || !(fr.GP.Overflow <= stopOverflow) {
		return fmt.Errorf("GP overflow %v above the %v stop target", overflowOf(fr.GP), stopOverflow)
	}
	return checkHPWL(fr.HPWLFinal, ref)
}

func overflowOf(r *xplace.PlacementResult) float64 {
	if r == nil {
		return math.NaN()
	}
	return r.Overflow
}

// checkHPWL rejects a final HPWL that is not a positive finite number or
// that differs from a non-zero reference by more than hpwlTolerance.
func checkHPWL(hpwl, ref float64) error {
	if !(hpwl > 0) || math.IsInf(hpwl, 0) {
		return fmt.Errorf("final HPWL %v is not a positive finite value", hpwl)
	}
	if ref != 0 && math.Abs(hpwl/ref-1) > hpwlTolerance {
		return fmt.Errorf("final HPWL %.1f is %.2f%% from the recorded %.1f (tolerance %.0f%%)",
			hpwl, 100*(hpwl/ref-1), ref, 100*hpwlTolerance)
	}
	return nil
}

// checkJob validates one served request: no error, the job ended
// Succeeded, and its GP reached the overflow target.
func checkJob(state serve.State, res *xplace.PlacementResult, err error) error {
	if err != nil {
		return err
	}
	if state != serve.Succeeded {
		return fmt.Errorf("job ended %s", state)
	}
	if res == nil || !(res.Overflow <= stopOverflow) {
		return fmt.Errorf("GP overflow %v above the %v stop target", overflowOf(res), stopOverflow)
	}
	return checkHPWL(res.HPWL, 0)
}

// sameResult reports whether two results for one cache key are the same
// placement: equal HPWL, overflow, iteration count and every position.
func sameResult(a, b *xplace.PlacementResult) bool {
	return a.HPWL == b.HPWL && a.Overflow == b.Overflow && a.Iterations == b.Iterations &&
		equalFloats(a.X, b.X) && equalFloats(a.Y, b.Y)
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

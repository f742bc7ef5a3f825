package main

import (
	"errors"
	"math"
	"testing"

	"xplace"
	"xplace/internal/serve"
)

func goodFlow() *xplace.FlowResult {
	return &xplace.FlowResult{
		GP:        &xplace.PlacementResult{Overflow: 0.069, HPWL: 80},
		HPWLFinal: 100,
	}
}

func TestCheckFlowRejectsWrongResults(t *testing.T) {
	if err := checkFlow(goodFlow(), nil, 100.5); err != nil {
		t.Fatalf("a correct flow was rejected: %v", err)
	}
	if err := checkFlow(goodFlow(), nil, 0); err != nil {
		t.Fatalf("a correct flow without a reference was rejected: %v", err)
	}
	for name, c := range map[string]struct {
		mutate func(*xplace.FlowResult)
		err    error
		ref    float64
	}{
		"error":          {func(*xplace.FlowResult) {}, errors.New("boom"), 100},
		"violations":     {func(f *xplace.FlowResult) { f.Violations = 1 }, nil, 100},
		"overflow":       {func(f *xplace.FlowResult) { f.GP.Overflow = 0.0701 }, nil, 100},
		"overflow NaN":   {func(f *xplace.FlowResult) { f.GP.Overflow = math.NaN() }, nil, 100},
		"no GP result":   {func(f *xplace.FlowResult) { f.GP = nil }, nil, 100},
		"HPWL above ref": {func(f *xplace.FlowResult) { f.HPWLFinal = 100 * (1 + 1.5*hpwlTolerance) }, nil, 100},
		"HPWL below ref": {func(f *xplace.FlowResult) { f.HPWLFinal = 100 * (1 - 1.5*hpwlTolerance) }, nil, 100},
		"HPWL zero":      {func(f *xplace.FlowResult) { f.HPWLFinal = 0 }, nil, 0},
		"HPWL NaN":       {func(f *xplace.FlowResult) { f.HPWLFinal = math.NaN() }, nil, 0},
		"HPWL infinite":  {func(f *xplace.FlowResult) { f.HPWLFinal = math.Inf(1) }, nil, 0},
	} {
		f := goodFlow()
		c.mutate(f)
		if err := checkFlow(f, c.err, c.ref); err == nil {
			t.Errorf("%s: wrong flow result accepted", name)
		}
	}
}

func TestCheckJobRejectsWrongResults(t *testing.T) {
	good := &xplace.PlacementResult{Overflow: 0.05, HPWL: 10}
	if err := checkJob(serve.Succeeded, good, nil); err != nil {
		t.Fatalf("a correct job was rejected: %v", err)
	}
	for name, c := range map[string]struct {
		state serve.State
		res   *xplace.PlacementResult
		err   error
	}{
		"error":     {serve.Succeeded, good, errors.New("boom")},
		"failed":    {serve.Failed, good, nil},
		"timed out": {serve.TimedOut, good, nil},
		"no result": {serve.Succeeded, nil, nil},
		"overflow":  {serve.Succeeded, &xplace.PlacementResult{Overflow: 0.2, HPWL: 10}, nil},
		"HPWL zero": {serve.Succeeded, &xplace.PlacementResult{Overflow: 0.05}, nil},
	} {
		if err := checkJob(c.state, c.res, c.err); err == nil {
			t.Errorf("%s: wrong job result accepted", name)
		}
	}
}

func TestSameResult(t *testing.T) {
	mk := func() *xplace.PlacementResult {
		return &xplace.PlacementResult{X: []float64{1, 2}, Y: []float64{3, 4}, HPWL: 5, Overflow: 0.06, Iterations: 9}
	}
	if !sameResult(mk(), mk()) {
		t.Fatal("identical results reported different")
	}
	for name, mutate := range map[string]func(*xplace.PlacementResult){
		"x":          func(r *xplace.PlacementResult) { r.X[1] = 2.0000001 },
		"y":          func(r *xplace.PlacementResult) { r.Y[0] = 0 },
		"hpwl":       func(r *xplace.PlacementResult) { r.HPWL = 5.5 },
		"overflow":   func(r *xplace.PlacementResult) { r.Overflow = 0.07 },
		"iterations": func(r *xplace.PlacementResult) { r.Iterations = 10 },
		"length":     func(r *xplace.PlacementResult) { r.X = r.X[:1] },
	} {
		r := mk()
		mutate(r)
		if sameResult(mk(), r) {
			t.Errorf("a result with another %s was reported the same", name)
		}
	}
}

package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"

	"xplace"
)

// referenceJSON holds the final HPWL recorded for each seed of the flow
// workloads: {"flow": {"<seed>": hpwl, ...}, "flow-nn": {...}}, recorded
// with 2 engine workers (checkHPWL's tolerance covers other counts). Re-record
// it with --record FROM:TO (see recordReferences) only when a change is
// meant to move placement quality, and say so in that change.
//
//go:embed reference.json
var referenceJSON []byte

// referencePath is reference.json relative to the checkout root.
const referencePath = "perfbench/reference.json"

func loadReferences() (map[string]map[string]float64, error) {
	refs := make(map[string]map[string]float64)
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return refs, nil
}

// referenceHPWL returns the recorded final HPWL of a flow workload for
// seed, or 0 when none is recorded.
func referenceHPWL(workload string, seed int64) (float64, error) {
	refs, err := loadReferences()
	if err != nil {
		return 0, err
	}
	return refs[workload][strconv.FormatInt(seed, 10)], nil
}

// recordReferences runs one Flow per seed in span ("FROM:TO", inclusive)
// on cfg's workload and merges each final HPWL into reference.json.
func recordReferences(cfg config, span string) error {
	if cfg.workload != "flow" && cfg.workload != "flow-nn" {
		return fmt.Errorf("--record applies to flow and flow-nn, not %s", cfg.workload)
	}
	a, b, ok := strings.Cut(span, ":")
	from, err1 := strconv.ParseInt(a, 10, 64)
	to, err2 := strconv.ParseInt(b, 10, 64)
	if !ok || err1 != nil || err2 != nil || from > to {
		return fmt.Errorf("--record wants FROM:TO, got %q", span)
	}
	refs, err := loadReferences()
	if err != nil {
		return err
	}
	if refs[cfg.workload] == nil {
		refs[cfg.workload] = make(map[string]float64)
	}
	var model *xplace.Model // trained once: flow-nn's model does not depend on the seed
	if cfg.workload == "flow-nn" {
		model = trainFNO()
	}
	for seed := from; seed <= to; seed++ {
		env, err := setupFlow(seed, false, cfg.workers)
		if err != nil {
			return err
		}
		env.model = model
		fr, err := env.flow(context.Background(), nil, nil, env.predictor(nil, 0))
		env.close()
		if err := checkFlow(fr, err, 0); err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		refs[cfg.workload][strconv.FormatInt(seed, 10)] = fr.HPWLFinal
		fmt.Fprintf(os.Stderr, "seed %d: final HPWL %.1f\n", seed, fr.HPWLFinal)
	}
	out, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(referencePath, append(out, '\n'), 0o644)
}

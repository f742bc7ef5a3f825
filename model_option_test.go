package xplace

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func savedTinyModel(t *testing.T) []byte {
	t.Helper()
	m := NewModel(ModelConfig{Width: 4, Modes: 3, Layers: 1, Seed: 1})
	m.Train(GenerateTrainingSamples(4, 16, 16, 1), TrainOptions{Epochs: 2, LR: 1e-3, Seed: 1})
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSessionWithFieldModel: the -model CLI path end to end at the facade
// — a session built WithFieldModel drives the NN-blended flow (the result
// differs from the pure numerical run of the same design and seed), and a
// per-run Predictor wins over the session's.
func TestSessionWithFieldModel(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fno.xfnm")
	if err := os.WriteFile(path, savedTinyModel(t), 0o644); err != nil {
		t.Fatal(err)
	}
	opt, err := WithFieldModel(path)
	if err != nil {
		t.Fatal(err)
	}
	d := sessionTestDesign(t, 150, 1)

	s := NewSession(opt, WithEngineOptions(1, 0))
	defer s.Close()
	blended, err := s.Place(context.Background(), d, sessionTestOpts(40))
	if err != nil {
		t.Fatal(err)
	}

	pure := NewSession(WithEngineOptions(1, 0))
	defer pure.Close()
	ref, err := pure.Place(context.Background(), d, sessionTestOpts(40))
	if err != nil {
		t.Fatal(err)
	}
	if blended.HPWL == ref.HPWL {
		t.Error("session field model had no effect: blended HPWL identical to numerical")
	}
}

// TestWithFieldModelTypedErrors: every way an artifact can be bad is a
// typed error at option-construction time, never a mid-placement failure.
func TestWithFieldModelTypedErrors(t *testing.T) {
	dir := t.TempDir()
	raw := savedTinyModel(t)

	if _, err := WithFieldModel(filepath.Join(dir, "missing.xfnm")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing file: got %v, want os.ErrNotExist", err)
	}

	foreign := filepath.Join(dir, "foreign.xfnm")
	if err := os.WriteFile(foreign, []byte("not a model at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := WithFieldModel(foreign); !errors.Is(err, ErrModelNotArtifact) {
		t.Errorf("foreign bytes: got %v, want ErrModelNotArtifact", err)
	}

	corrupt := filepath.Join(dir, "corrupt.xfnm")
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)-10] ^= 0x20
	if err := os.WriteFile(corrupt, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := WithFieldModel(corrupt); !errors.Is(err, ErrModelCorrupt) {
		t.Errorf("bit flip: got %v, want ErrModelCorrupt", err)
	}

	if _, err := WithFieldModelReader(bytes.NewReader(raw[:len(raw)/2])); !errors.Is(err, ErrModelCorrupt) {
		t.Errorf("truncation: got %v, want ErrModelCorrupt", err)
	}
}

// TestStatModelFacade: StatModel reads the artifact header without
// decoding weights, and its sha256 matches what a full load verifies.
func TestStatModelFacade(t *testing.T) {
	raw := savedTinyModel(t)
	hdr, err := StatModel(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Config.Width != 4 || hdr.TrainRes != 16 || hdr.ParamCount == 0 || len(hdr.SHA256) != 64 {
		t.Fatalf("header %+v, want width 4, train_res 16, nonzero params, 64-hex sha", hdr)
	}
	if _, err := LoadModel(bytes.NewReader(raw)); err != nil {
		t.Fatalf("artifact that Stats clean fails to load: %v", err)
	}
}

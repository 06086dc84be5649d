package rf

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"
)

// TestSaveLoadRoundTrip checks persisted forests predict identically.
func TestSaveLoadRoundTrip(t *testing.T) {
	ds := synth(300, 30, func(x []float64) float64 { return 5*x[0] + x[2] })
	f, err := Train(ds, Config{NumTrees: 15, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumTrees() != f.NumTrees() || g.NumFeatures() != f.NumFeatures() {
		t.Fatalf("shape mismatch after load")
	}
	for i := 0; i < 50; i++ {
		x := ds.X[i]
		if f.Predict(x) != g.Predict(x) {
			t.Fatalf("prediction mismatch on row %d", i)
		}
	}
	// Importances survive the round trip.
	fi, gi := f.FeatureImportance(), g.FeatureImportance()
	for k := range fi {
		if fi[k] != gi[k] {
			t.Errorf("importance %d differs", k)
		}
	}
}

// TestLoadedForestCanWarmStart checks restored models keep learning.
func TestLoadedForestCanWarmStart(t *testing.T) {
	ds := synth(200, 32, func(x []float64) float64 { return 10 })
	f, _ := Train(ds, Config{NumTrees: 10, Seed: 33})
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.WarmStart(ds, 5); err != nil {
		t.Fatal(err)
	}
	if g.NumTrees() != 15 {
		t.Errorf("trees after warm start = %d", g.NumTrees())
	}
}

// TestLoadRejectsGarbage checks error handling on corrupt input.
func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
}

// TestLoadRejectsCorruptTrees checks that Load fails closed on node
// graphs Save never writes. Two of them used to get through: a child
// index of 0 sent predict round the same nodes forever, and a feature
// index past the model's width panicked with index out of range.
func TestLoadRejectsCorruptTrees(t *testing.T) {
	ds := synth(200, 34, func(x []float64) float64 { return 3*x[0] - x[1] })
	f, err := Train(ds, Config{NumTrees: 3, Seed: 35})
	if err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := f.Save(&saved); err != nil {
		t.Fatal(err)
	}
	// split returns the index of the first split node of tree 0.
	split := func(pf *persistForest) int {
		for j, nd := range pf.Trees[0].Nodes {
			if nd.Feature >= 0 {
				return j
			}
		}
		t.Fatal("tree 0 has no split")
		return 0
	}
	cases := []struct {
		name    string
		corrupt func(pf *persistForest)
	}{
		{"left child 0", func(pf *persistForest) { pf.Trees[0].Nodes[split(pf)].Left = 0 }},
		{"feature 99", func(pf *persistForest) { pf.Trees[0].Nodes[split(pf)].Feature = 99 }},
		{"feature -2", func(pf *persistForest) { pf.Trees[0].Nodes[split(pf)].Feature = -2 }},
		{"right child past the end", func(pf *persistForest) {
			pf.Trees[0].Nodes[split(pf)].Right = int32(len(pf.Trees[0].Nodes))
		}},
		{"NaN threshold", func(pf *persistForest) { pf.Trees[0].Nodes[split(pf)].Threshold = math.NaN() }},
		{"infinite leaf value", func(pf *persistForest) {
			n := pf.Trees[0].Nodes
			n[len(n)-1].Value = math.Inf(1)
		}},
		{"empty tree", func(pf *persistForest) { pf.Trees[0].Nodes = nil }},
		{"extra feature gains", func(pf *persistForest) {
			pf.Trees[0].FeatGain = append(pf.Trees[0].FeatGain, 1)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var pf persistForest
			if err := gob.NewDecoder(bytes.NewReader(saved.Bytes())).Decode(&pf); err != nil {
				t.Fatal(err)
			}
			tc.corrupt(&pf)
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(pf); err != nil {
				t.Fatal(err)
			}
			if _, err := Load(&buf); err == nil {
				t.Fatal("corrupt model loaded")
			}
		})
	}
}

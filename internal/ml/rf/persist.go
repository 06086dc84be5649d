package rf

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
)

// The on-disk format mirrors the in-memory structures with exported
// fields so encoding/gob can reach them. The format is versioned to
// fail loudly on incompatible files rather than mis-predicting.

const persistVersion = 1

type persistNode struct {
	Feature   int
	Threshold float64
	Value     float64
	Left      int32
	Right     int32
}

type persistTree struct {
	Nodes    []persistNode
	FeatGain []float64
}

type persistForest struct {
	Version   int
	NFeatures int
	Config    Config
	Trees     []persistTree
}

// Save serializes the forest (trees and hyperparameters; out-of-bag
// bookkeeping is training-time state and is not persisted).
func (f *Forest) Save(w io.Writer) error {
	pf := persistForest{
		Version:   persistVersion,
		NFeatures: f.nFeatures,
		Config:    f.cfg,
		Trees:     make([]persistTree, len(f.trees)),
	}
	for i, t := range f.trees {
		pt := persistTree{
			Nodes:    make([]persistNode, len(t.nodes)),
			FeatGain: append([]float64(nil), t.featGain...),
		}
		for j, nd := range t.nodes {
			pt.Nodes[j] = persistNode{
				Feature: nd.feature, Threshold: nd.threshold,
				Value: nd.value, Left: nd.left, Right: nd.right,
			}
		}
		pf.Trees[i] = pt
	}
	return gob.NewEncoder(w).Encode(pf)
}

// Load deserializes a forest saved with Save. Loaded forests predict
// and warm-start normally; out-of-bag statistics restart empty.
func Load(r io.Reader) (*Forest, error) {
	var pf persistForest
	if err := gob.NewDecoder(r).Decode(&pf); err != nil {
		return nil, fmt.Errorf("rf: decode: %w", err)
	}
	if pf.Version != persistVersion {
		return nil, fmt.Errorf("rf: model file version %d, want %d", pf.Version, persistVersion)
	}
	if pf.NFeatures <= 0 || len(pf.Trees) == 0 {
		return nil, fmt.Errorf("rf: model file is empty")
	}
	f := &Forest{
		cfg:       pf.Config,
		nFeatures: pf.NFeatures,
		rng:       nil, // set lazily by WarmStart if ever needed
	}
	for i := range pf.Trees {
		if err := pf.Trees[i].validate(pf.NFeatures); err != nil {
			return nil, fmt.Errorf("rf: tree %d: %w", i, err)
		}
	}
	for _, pt := range pf.Trees {
		t := &tree{
			nodes:    make([]node, len(pt.Nodes)),
			featGain: append([]float64(nil), pt.FeatGain...),
		}
		for j, nd := range pt.Nodes {
			t.nodes[j] = node{
				feature: nd.Feature, threshold: nd.Threshold,
				value: nd.Value, left: nd.Left, right: nd.Right,
			}
		}
		f.trees = append(f.trees, t)
	}
	return f, nil
}

// validate checks that a decoded tree is one Save could have written,
// so that a corrupt model file fails to load rather than hanging or
// panicking at prediction time. Every split must name a feature the
// model has and send both children to later nodes, so every walk from
// the root ends at a leaf; every threshold and value must be finite.
func (pt *persistTree) validate(nFeatures int) error {
	if len(pt.Nodes) == 0 {
		return errors.New("no nodes")
	}
	if len(pt.FeatGain) > nFeatures {
		return fmt.Errorf("%d feature gains for %d features", len(pt.FeatGain), nFeatures)
	}
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	for j, nd := range pt.Nodes {
		if !finite(nd.Value) {
			return fmt.Errorf("node %d: value %v", j, nd.Value)
		}
		if nd.Feature == -1 {
			continue // leaf
		}
		if nd.Feature < 0 || nd.Feature >= nFeatures {
			return fmt.Errorf("node %d: feature %d outside [0, %d)", j, nd.Feature, nFeatures)
		}
		if !finite(nd.Threshold) {
			return fmt.Errorf("node %d: threshold %v", j, nd.Threshold)
		}
		for _, c := range [2]int32{nd.Left, nd.Right} {
			if int(c) <= j || int(c) >= len(pt.Nodes) {
				return fmt.Errorf("node %d: child %d outside (%d, %d)", j, c, j, len(pt.Nodes))
			}
		}
	}
	return nil
}

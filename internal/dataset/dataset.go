// Package dataset provides the synthetic stand-ins for the paper's
// datasets. CIFAR-100 and LFW are not shipped with this repository (and
// the attacks exploit structure, not specific pixels), so we generate:
//
//   - a CIFAR-100-like corpus: 100 classes of 32×32×3 images, each class
//     defined by a smooth procedural signature (mixture of 2-D sinusoids)
//     plus per-sample Gaussian noise — giving early convolutional layers
//     genuine low-level visual structure to leak (DRIA) and a controllable
//     member/non-member gap (MIA);
//   - an LFW-like corpus: face-ish images where a binary property (the
//     paper's example is gender; ours is a synthetic band pattern) overlays
//     a secondary signal on a fraction of samples, which is what the
//     data-property inference attack (DPIA) detects.
//
// docs/EVALUATION.md ("Mini-scale deviations") documents these substitutions.
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/gradsec/gradsec/internal/tensor"
)

// Generator produces class-conditional synthetic images.
type Generator struct {
	C, H, W int
	Classes int
	// Noise is the stddev of per-sample Gaussian noise.
	Noise float64
	// ScaleJitter, when non-zero, multiplies each sample by a random gain
	// in [1−ScaleJitter, 1+ScaleJitter]. Real images vary in exposure and
	// contrast; this keeps early-layer gradient magnitudes from acting as
	// a clean loss proxy (matters for the MIA experiments).
	ScaleJitter float64
	// Diversity ∈ [0,1) mixes a fresh random procedural image into every
	// sample: x = (1−Diversity)·signature + Diversity·fresh + noise.
	// Real photo corpora have high intra-class structural diversity, which
	// makes early convolutional gradients content-dominated rather than
	// loss-dominated — the property behind the paper's Figure 6 layer
	// hierarchy (dense layers leak membership; conv layers much less).
	Diversity float64

	signatures []*tensor.Tensor // per class, [C,H,W]
}

// NewGenerator creates a generator with the given image geometry and
// number of classes. Class signatures are fixed at construction from rng.
func NewGenerator(rng *rand.Rand, classes, c, h, w int, noise float64) *Generator {
	g := &Generator{C: c, H: h, W: w, Classes: classes, Noise: noise}
	g.signatures = make([]*tensor.Tensor, classes)
	for k := range g.signatures {
		g.signatures[k] = proceduralImage(rng, c, h, w)
	}
	return g
}

// proceduralImage builds a smooth image from a small random mixture of 2-D
// sinusoids plus a random bright block, normalised to roughly [-1, 1].
func proceduralImage(rng *rand.Rand, c, h, w int) *tensor.Tensor {
	img := tensor.New(c, h, w)
	type wave struct{ fx, fy, phase, amp float64 }
	waves := make([]wave, 3)
	for i := range waves {
		waves[i] = wave{
			fx:    (rng.Float64() + 0.2) * 2 * math.Pi / float64(w) * 3,
			fy:    (rng.Float64() + 0.2) * 2 * math.Pi / float64(h) * 3,
			phase: rng.Float64() * 2 * math.Pi,
			amp:   0.3 + rng.Float64()*0.4,
		}
	}
	bx, by := rng.Intn(w), rng.Intn(h)
	bs := 3 + rng.Intn(5)
	for ci := 0; ci < c; ci++ {
		chanShift := float64(ci) * 0.7
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				v := 0.0
				for _, wv := range waves {
					v += wv.amp * math.Sin(wv.fx*float64(x)+wv.fy*float64(y)+wv.phase+chanShift)
				}
				if x >= bx && x < bx+bs && y >= by && y < by+bs {
					v += 0.8
				}
				img.Set(clamp(v, -1, 1), ci, y, x)
			}
		}
	}
	return img
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Sample draws one fresh image of the given class: signature + noise.
func (g *Generator) Sample(rng *rand.Rand, class int) *tensor.Tensor {
	if class < 0 || class >= g.Classes {
		panic(fmt.Sprintf("dataset: class %d out of range [0,%d)", class, g.Classes))
	}
	img := g.signatures[class].Clone()
	if g.Diversity > 0 {
		fresh := proceduralImage(rng, g.C, g.H, g.W)
		for i := range img.Data {
			img.Data[i] = (1-g.Diversity)*img.Data[i] + g.Diversity*fresh.Data[i]
		}
	}
	gain := 1.0
	if g.ScaleJitter > 0 {
		gain = 1 + (rng.Float64()*2-1)*g.ScaleJitter
	}
	for i := range img.Data {
		img.Data[i] = clamp(img.Data[i]*gain+rng.NormFloat64()*g.Noise, -1.5, 1.5)
	}
	return img
}

// Signature returns the noiseless class prototype (useful as a DRIA
// reconstruction target reference).
func (g *Generator) Signature(class int) *tensor.Tensor { return g.signatures[class] }

// Dataset is a fixed set of labelled images.
type Dataset struct {
	// X has shape [N, C, H, W].
	X *tensor.Tensor
	// Labels holds the class index of each sample.
	Labels  []int
	Classes int
}

// FixedSet materialises perClass samples of each class into a Dataset.
func (g *Generator) FixedSet(rng *rand.Rand, perClass int) *Dataset {
	n := perClass * g.Classes
	d := &Dataset{
		X:       tensor.New(n, g.C, g.H, g.W),
		Labels:  make([]int, n),
		Classes: g.Classes,
	}
	cells := g.C * g.H * g.W
	i := 0
	for class := 0; class < g.Classes; class++ {
		for s := 0; s < perClass; s++ {
			img := g.Sample(rng, class)
			copy(d.X.Data[i*cells:(i+1)*cells], img.Data)
			d.Labels[i] = class
			i++
		}
	}
	return d
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Labels) }

// Sample returns the i-th image (a copy, shaped [1,C,H,W]) and its label.
func (d *Dataset) Sample(i int) (*tensor.Tensor, int) {
	cells := d.X.Size() / d.Len()
	img := tensor.New(1, d.X.Shape[1], d.X.Shape[2], d.X.Shape[3])
	copy(img.Data, d.X.Data[i*cells:(i+1)*cells])
	return img, d.Labels[i]
}

// Batch gathers the samples at idx into (x [n,C,H,W], y one-hot [n,classes]).
func (d *Dataset) Batch(idx []int) (*tensor.Tensor, *tensor.Tensor) {
	cells := d.X.Size() / d.Len()
	x := tensor.New(len(idx), d.X.Shape[1], d.X.Shape[2], d.X.Shape[3])
	y := tensor.New(len(idx), d.Classes)
	for bi, i := range idx {
		copy(x.Data[bi*cells:(bi+1)*cells], d.X.Data[i*cells:(i+1)*cells])
		y.Set(1, bi, d.Labels[i])
	}
	return x, y
}

// RandomBatch samples n indices without replacement (or with replacement
// when n exceeds the dataset size) and returns their batch.
func (d *Dataset) RandomBatch(rng *rand.Rand, n int) (*tensor.Tensor, *tensor.Tensor) {
	idx := make([]int, n)
	if n <= d.Len() {
		perm := rng.Perm(d.Len())
		copy(idx, perm[:n])
	} else {
		for i := range idx {
			idx[i] = rng.Intn(d.Len())
		}
	}
	return d.Batch(idx)
}

// OneHot encodes labels into an [n, classes] matrix.
func OneHot(labels []int, classes int) *tensor.Tensor {
	y := tensor.New(len(labels), classes)
	for i, l := range labels {
		y.Set(1, i, l)
	}
	return y
}

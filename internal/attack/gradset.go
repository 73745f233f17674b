package attack

import (
	"math"
	"math/rand"

	"github.com/gradsec/gradsec/internal/ensemble"
	"github.com/gradsec/gradsec/internal/metrics"
)

// GradDataset is the attacker's D_grad: one feature row per observation
// (per sample for MIA, per cycle for DPIA) of an unprotected victim.
// Protection is evaluated the way the paper does (§8.1): delete the blocks
// of protected layers, mean-impute, train, measure AUC — so one expensive
// victim run supports every protection configuration.
type GradDataset struct {
	Rows   [][]float64
	Labels []bool
	// Features produced Rows, and turns a live Observation into a
	// comparable one.
	Features *Featurizer
}

// Masked copies the rows with each row's protected blocks deleted (NaN):
// bit for bit what Features writes for the observations a live trainer
// exposes under the same schedule.
func (d *GradDataset) Masked(schedule Schedule) [][]float64 {
	w := d.Features.PerLayer
	out := make([][]float64, len(d.Rows))
	for i, row := range d.Rows {
		cp := append([]float64(nil), row...)
		for _, l := range schedule(i) {
			for k := l * w; k < (l+1)*w; k++ {
				cp[k] = math.NaN()
			}
		}
		out[i] = cp
	}
	return out
}

// FitFunc trains an attack model on imputed, normalised features and
// returns its scorer: the probability that a row is a positive.
type FitFunc func(x [][]float64, y []bool) func(row []float64) float64

// LogisticAttack is the MIA attack-model trainer.
func LogisticAttack(x [][]float64, y []bool) func([]float64) float64 {
	return ensemble.FitLogistic(x, y, ensemble.LogisticConfig{Epochs: 400, LR: 0.3}).PredictProb
}

// ForestAttack returns a DPIA attack-model trainer (random forest, as in
// the paper) with the given seed.
func ForestAttack(seed int64) FitFunc {
	return func(x [][]float64, y []bool) func([]float64) float64 {
		return ensemble.FitForest(x, y, ensemble.ForestConfig{Trees: 40, Seed: seed}).PredictProb
	}
}

// Eval scores a protection schedule: delete, split, impute, train, AUC
// on the held-out part.
func (d *GradDataset) Eval(schedule Schedule, fit FitFunc, seed int64) float64 {
	rows := d.Masked(schedule)
	perm := rand.New(rand.NewSource(seed)).Perm(len(rows))
	pick := func(idx []int) (x [][]float64, y []bool) {
		for _, i := range idx {
			x, y = append(x, rows[i]), append(y, d.Labels[i])
		}
		return x, y
	}
	cut := int(0.6 * float64(len(rows)))
	trainX, trainY := pick(perm[:cut])
	testX, testY := pick(perm[cut:])
	means := ensemble.MeanImpute(trainX)
	ensemble.ApplyImpute(testX, means)
	normalize(trainX, testX)
	score := fit(trainX, trainY)
	scores := make([]float64, len(testX))
	for i, row := range testX {
		scores[i] = score(row)
	}
	return metrics.AUC(testY, scores)
}

// normalize standardises columns using training statistics (logistic
// regression needs comparable scales across layer features).
func normalize(train, test [][]float64) {
	if len(train) == 0 {
		return
	}
	for j := range train[0] {
		col := make([]float64, len(train))
		for i, row := range train {
			col[i] = row[j]
		}
		mean, std := metrics.MeanStd(col)
		if std == 0 {
			std = 1
		}
		for _, row := range train {
			row[j] = (row[j] - mean) / std
		}
		for _, row := range test {
			row[j] = (row[j] - mean) / std
		}
	}
}

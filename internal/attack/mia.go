package attack

import (
	"math/rand"

	"github.com/gradsec/gradsec/internal/dataset"
	"github.com/gradsec/gradsec/internal/nn"
	"github.com/gradsec/gradsec/internal/opt"
	"github.com/gradsec/gradsec/internal/tensor"
)

// MIAConfig configures the membership-inference experiment.
type MIAConfig struct {
	// VictimSteps trains the victim model into the overfitting regime
	// where membership leaks (0 = 500). Membership inference needs
	// memorisation: small member sets and many steps.
	VictimSteps int
	// MembersPerClass sizes the victim training set (0 = 5).
	MembersPerClass int
	// VictimLR is the victim training rate (0 = 0.1).
	VictimLR float64
	// AttackSamples per class (member/non-member) in D_grad (0 = 96).
	AttackSamples int
	// Seed drives all randomness.
	Seed int64
}

func (cfg MIAConfig) withDefaults() MIAConfig {
	if cfg.VictimSteps == 0 {
		cfg.VictimSteps = 500
	}
	if cfg.MembersPerClass == 0 {
		cfg.MembersPerClass = 5
	}
	if cfg.VictimLR == 0 {
		cfg.VictimLR = 0.1
	}
	if cfg.AttackSamples == 0 {
		cfg.AttackSamples = 96
	}
	return cfg
}

// BuildMIADataset is the membership-inference attack of the paper's §3.2
// up to the attack model: the attacker holds data known to be in the
// training set (D1 ⊂ D) and known not to be (D2 ⊄ D) and observes the
// victim's per-sample gradients on both. It overfits net, the victim, on
// members drawn from gen and returns the unprotected gradient dataset
// (label = member) with the victim's training accuracy; Eval with
// LogisticAttack scores held-out points under any protection schedule.
func BuildMIADataset(net *nn.Network, gen *dataset.Generator, cfg MIAConfig) (*GradDataset, float64) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Victim training set (the members): deliberately small so the model
	// memorises individual samples rather than class structure.
	members := gen.FixedSet(rng, cfg.MembersPerClass)
	o := opt.NewSGD(cfg.VictimLR, 0.9)
	for s := 0; s < cfg.VictimSteps; s++ {
		x, y := members.RandomBatch(rng, 8)
		net.TrainStep(x, y, o)
	}
	all := make([]int, members.Len())
	for i := range all {
		all[i] = i
	}
	xAll, yAll := members.Batch(all)
	trainAcc := net.Accuracy(xAll, yAll)

	// D_grad: per-sample gradients of members and fresh non-members.
	d := &GradDataset{Features: NewFeaturizer(net, 12345)}
	add := func(x, y *tensor.Tensor, member bool) {
		_, grads := net.Gradients(x, y)
		d.Rows = append(d.Rows, d.Features.Row(grads))
		d.Labels = append(d.Labels, member)
	}
	for i := 0; i < cfg.AttackSamples; i++ {
		x, lab := members.Sample(rng.Intn(members.Len()))
		add(x, dataset.OneHot([]int{lab}, gen.Classes), true)
		cls := rng.Intn(gen.Classes)
		nx := gen.Sample(rng, cls).Reshape(1, gen.C, gen.H, gen.W)
		add(nx, dataset.OneHot([]int{cls}, gen.Classes), false)
	}
	return d, trainAcc
}

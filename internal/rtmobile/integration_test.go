package rtmobile

import (
	"testing"

	"rtmobile/internal/compiler"
	"rtmobile/internal/device"
	"rtmobile/internal/nn"
	"rtmobile/internal/prune"
	"rtmobile/internal/speech"
)

// TestEndToEndPipeline exercises the complete system at miniature scale:
// corpus synthesis → MFCC → GRU training → ADMM+BSP pruning → compilation
// for both targets → functional inference → PER scoring. It asserts the
// cross-module contracts rather than absolute accuracy (the corpus is tiny).
func TestEndToEndPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	corpusCfg := speech.CorpusConfig{
		Seed: 99, NumSpeakers: 6, SentencesPerSpeaker: 2,
		PhonesPerSentence: 8, TestFraction: 0.34,
		Features: speech.DefaultFeatureConfig(),
	}
	corpus, err := speech.GenerateCorpus(corpusCfg)
	if err != nil {
		t.Fatal(err)
	}
	train := make([]nn.Sequence, len(corpus.Train))
	for i, u := range corpus.Train {
		train[i] = nn.Sequence{Frames: u.Frames, Labels: u.Labels}
	}

	model := nn.NewGRUModel(nn.ModelSpec{
		InputDim: corpusCfg.Features.Dim(), Hidden: 24, NumLayers: 2,
		OutputDim: speech.NumPhones, Seed: 7,
	})
	lossBefore := model.Loss(train)
	model.Train(train, nn.NewAdam(3e-3), nn.TrainConfig{Epochs: 6, Seed: 11})
	lossAfter := model.Loss(train)
	if lossAfter >= lossBefore {
		t.Fatalf("training did not reduce loss: %.3f -> %.3f", lossBefore, lossAfter)
	}

	admm := prune.DefaultADMMConfig()
	admm.Iterations = 1
	admm.EpochsPerIter = 1
	admm.FinetuneEpochs = 2
	res := Prune(model, train, PruneConfig{
		ColRate: 2, RowRate: 1, RowGroups: 4, ColBlocks: 4, ADMM: admm,
	})
	if res.CompressionRate() <= 1.5 {
		t.Fatalf("compression %.2f too low", res.CompressionRate())
	}

	for _, target := range []*device.Target{device.MobileGPU(), device.MobileCPU()} {
		eng, err := Compile(model.Clone(), res.Scheme, DeployConfig{Target: target})
		if err != nil {
			t.Fatalf("%s: %v", target.Name, err)
		}
		// Functional inference produces scoreable posteriors.
		var r speech.PERResult
		for _, u := range corpus.Test {
			hyp := speech.SmoothDecode(eng.Infer(u.Frames), 5, 3)
			r.ScoreUtterance(hyp, u.Phones)
		}
		per := r.PER()
		if per < 0 || per > 300 {
			t.Fatalf("%s: implausible PER %v", target.Name, per)
		}
		lat := eng.Latency()
		if lat.TotalUS <= 0 {
			t.Fatalf("%s: non-positive latency", target.Name)
		}
		// A 24-hidden model must be far beyond real time on either target.
		if eng.RealTimeFactor() < 10 {
			t.Fatalf("%s: real-time factor %v too low", target.Name, eng.RealTimeFactor())
		}
		// The compiled plan must carry every prunable matrix.
		if len(eng.Plan().Matrices) != len(model.WeightMatrices()) {
			t.Fatalf("%s: plan has %d matrices, model has %d",
				target.Name, len(eng.Plan().Matrices), len(model.WeightMatrices()))
		}
	}

	// The listing renders without panic and mentions every kernel.
	eng, err := Compile(model, res.Scheme, DeployConfig{Target: device.MobileGPU()})
	if err != nil {
		t.Fatal(err)
	}
	listing := compiler.EmitListing(eng.Plan())
	for _, p := range model.WeightMatrices() {
		if !containsStr(listing, "kernel "+p.Name) {
			t.Fatalf("listing missing kernel for %s", p.Name)
		}
	}
}

func containsStr(s, sub string) bool {
	return len(s) >= len(sub) && indexStr(s, sub) >= 0
}

func indexStr(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

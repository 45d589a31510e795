package rtmobile

import (
	"fmt"
	"io"

	"rtmobile/internal/compiler"
	"rtmobile/internal/device"
	"rtmobile/internal/nn"
	"rtmobile/internal/prune"
)

// Deployment bundles are read in one format only: version 5 (bundle5.go),
// the one this tree writes, whose stored programs run as written and whose
// plan names the target they were lowered for. Both readers — MapBundle
// for serving, ReadBundle for `rtmobile deploy -in` — accept exactly the
// files an engine can run as written. Anything else (a version 1–4 file, or
// a v5 file an older writer left with programs no engine runs or a plan
// that does not price them) is refused with the reason and the way to
// upgrade it: commit legacyReaderCommit is the last whose `deploy -in`
// reads every older file and writes one these readers take. One kind of v5
// file only ReadBundle takes: one deployed on the fast kernel tier, which is
// gone; its programs hold exact weights, so `deploy -in` here re-lowers it
// and MapBundle names that command (fastTier).

const (
	bundleMagic = "RTMB"
	// legacyReaderCommit is the last commit that re-deploys a bundle these
	// readers refuse.
	legacyReaderCommit = "42abea6"
)

// refuseBundle is the error for a bundle this tree cannot run as written:
// the reason, and the command that upgrades it (naming path when known).
func refuseBundle(reason, path string) error {
	return fmt.Errorf("rtmobile: bundle %s: re-deploy it with rtmobile deploy -in %s at commit %s", reason, pathOr(path), legacyReaderCommit)
}

// pathOr is path, or "<file>" when the bundle came from no named file.
func pathOr(path string) string {
	if path == "" {
		return "<file>"
	}
	return path
}

// loweredFor reports whether plan was lowered for target: its value width
// (valueBits) and its thread count, which every matrix's chunking records.
func loweredFor(plan *compiler.Plan, target *device.Target) bool {
	if plan.Options.ValueBits != valueBits(target) {
		return false
	}
	for _, m := range plan.Matrices {
		if len(m.ThreadMACs) != target.Threads() {
			return false
		}
	}
	return true
}

// bundleTarget is the target a bundle's plan is served and re-deployed
// under: the one the plan was lowered for when target is nil, else target,
// refused when the plan was lowered for another.
func bundleTarget(plan *compiler.Plan, target *device.Target) (*device.Target, error) {
	if target != nil && loweredFor(plan, target) {
		return target, nil
	}
	for _, t := range []*device.Target{device.MobileGPU(), device.MobileCPU()} {
		switch {
		case !loweredFor(plan, t):
		case target == nil:
			return t, nil
		default:
			return nil, fmt.Errorf("rtmobile: bundle was lowered for %s (%d-bit values), not %s (%d-bit)",
				t.Name, valueBits(t), target.Name, valueBits(target))
		}
	}
	return nil, fmt.Errorf("rtmobile: bundle plan (%d-bit values) was lowered for no known target", plan.Options.ValueBits)
}

// ReadBundle decodes a v5 deployment bundle into the dense model its
// programs were lowered from, the scheme it records, and the DeployConfig
// it was deployed with. Compile(model, scheme, cfg) then lowers it again:
// it is how `rtmobile deploy -in` re-deploys a file at another quantization
// width or pass setting, and how a file deployed on the removed fast kernel
// tier (fastTier) is lowered again: its programs hold the same weights an
// exact deployment's do. cfg.Target is the target the bundle
// was lowered for when target is nil; a non-nil target must be that one
// (bundleTarget), since lowering a deployment for another value width would
// round its weights again. No tuning verdict is copied: a recorded analytic
// search is armed again (cfg.AutoTuneTiling; the search is deterministic).
func ReadBundle(r io.Reader, target *device.Target) (model *nn.Model, scheme prune.BSP, cfg DeployConfig, err error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, scheme, cfg, fmt.Errorf("rtmobile: reading bundle: %w", err)
	}
	f, err := decodeV5(data, "")
	if err != nil {
		return nil, scheme, cfg, err
	}
	opt := f.meta.Plan.Options
	if target, err = bundleTarget(f.meta.Plan, target); err != nil {
		return nil, scheme, cfg, err
	}
	cfg = DeployConfig{
		Target:          target,
		Format:          opt.Format,
		DisableReorder:  !opt.Reorder,
		DisableLoadElim: !opt.EliminateRedundantLoads,
		AutoTuneTiling:  TuneMode(f.meta.TuneMode) == TuneAnalytic,
		Tile:            opt.Tile,
		Quant:           f.meta.QuantBits,
	}
	return denseOf(f.shell, f.progs), f.meta.Scheme, cfg, nil
}

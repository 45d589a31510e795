package compiler

import (
	"testing"
	"testing/quick"

	"rtmobile/internal/prune"
	"rtmobile/internal/tensor"
)

func bspMat(seed uint64, rows, cols int, scheme prune.BSP) *tensor.Matrix {
	m := tensor.NewMatrix(rows, cols)
	m.RandNormal(tensor.NewRNG(seed), 1)
	return scheme.Project(m)
}

func TestReorderIsPermutation(t *testing.T) {
	scheme := prune.BSP{ColRate: 4, RowRate: 2, NumRowGroups: 4, NumColBlocks: 4}
	w := bspMat(1, 64, 64, scheme)
	perm := Reorder(w)
	if len(perm) != 64 {
		t.Fatalf("perm length %d", len(perm))
	}
	seen := make([]bool, 64)
	for _, p := range perm {
		if p < 0 || p >= 64 || seen[p] {
			t.Fatalf("not a permutation: %v", perm)
		}
		seen[p] = true
	}
}

func TestReorderGroupsEqualPatterns(t *testing.T) {
	// Two distinct row patterns interleaved; after reorder, equal patterns
	// must be adjacent.
	w := tensor.NewMatrix(8, 8)
	for i := 0; i < 8; i++ {
		if i%2 == 0 {
			w.Set(i, 0, 1)
			w.Set(i, 3, 1)
		} else {
			w.Set(i, 5, 1)
			w.Set(i, 6, 1)
		}
	}
	perm := Reorder(w)
	// The first four storage rows must all share a signature, i.e. all
	// even-original or all odd-original.
	parity := perm[0] % 2
	for _, p := range perm[:4] {
		if p%2 != parity {
			t.Fatalf("reorder did not group equal patterns: %v", perm)
		}
	}
}

func TestReorderSortsByWork(t *testing.T) {
	w := tensor.NewMatrix(4, 8)
	// Row 2 has most work, then 0, then 3, then 1 (empty).
	for j := 0; j < 8; j++ {
		w.Set(2, j, 1)
	}
	for j := 0; j < 4; j++ {
		w.Set(0, j, 1)
	}
	w.Set(3, 0, 1)
	perm := Reorder(w)
	if perm[0] != 2 || perm[1] != 0 || perm[2] != 3 || perm[3] != 1 {
		t.Fatalf("work-descending order wrong: %v", perm)
	}
}

func TestAssignThreadsBalanced(t *testing.T) {
	// Work: alternating heavy (100) and light (0) rows. Row-count chunking
	// across 2 threads in sorted order would be fine, but in natural order
	// with balance=false the first thread gets all heavy rows.
	work := []int{100, 100, 100, 100, 0, 0, 0, 0}
	order := []int{0, 1, 2, 3, 4, 5, 6, 7}
	naive := chunkWork(assignThreads(order, work, 2, false), order, work)
	if naive[0] != 400 || naive[1] != 0 {
		t.Fatalf("naive chunking got %v", naive)
	}
	balanced := chunkWork(assignThreads(order, work, 2, true), order, work)
	if balanced[0] != 200 || balanced[1] != 200 {
		t.Fatalf("balanced chunking got %v", balanced)
	}
}

// chunkWork sums per-row work per thread chunk.
func chunkWork(cut, order, work []int) []int {
	out := make([]int, len(cut)-1)
	for t := range out {
		for _, r := range order[cut[t]:cut[t+1]] {
			out[t] += work[r]
		}
	}
	return out
}

func TestAssignThreadsCoversAllRows(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		n := 1 + rng.Intn(40)
		threads := 1 + rng.Intn(8)
		work := make([]int, n)
		order := make([]int, n)
		for i := range work {
			work[i] = rng.Intn(50)
			order[i] = i
		}
		for _, balance := range []bool{false, true} {
			cut := assignThreads(order, work, threads, balance)
			if len(cut) != threads+1 || cut[0] != 0 || cut[threads] != n {
				return false
			}
			seen := make([]bool, n)
			for t := 0; t < threads; t++ {
				if cut[t] > cut[t+1] {
					return false
				}
				for _, r := range order[cut[t]:cut[t+1]] {
					if seen[r] {
						return false
					}
					seen[r] = true
				}
			}
			for _, s := range seen {
				if !s {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCompileDense(t *testing.T) {
	w := tensor.NewMatrix(32, 16)
	w.Fill(1)
	_, ms, err := LowerMatrix(MatrixSource{Name: "d", W: w}, DefaultOptions(FormatDense, 16), 4)
	if err != nil {
		t.Fatal(err)
	}
	if ms.MACs() != 32*16 {
		t.Fatalf("dense MACs %d", ms.MACs())
	}
	if ms.WeightBytes != 32*16*2 {
		t.Fatalf("dense bytes %d", ms.WeightBytes)
	}
	if ms.GatherLoads != 0 {
		t.Fatal("dense format should have no gathers")
	}
	if ms.IndexBytes != 0 {
		t.Fatal("dense format should have no index bytes")
	}
}

func TestCompileCSRGathers(t *testing.T) {
	scheme := prune.BSP{ColRate: 4, RowRate: 1, NumRowGroups: 4, NumColBlocks: 4}
	w := bspMat(2, 32, 32, scheme)
	_, ms, err := LowerMatrix(MatrixSource{Name: "c", W: w}, DefaultOptions(FormatCSR, 16), 4)
	if err != nil {
		t.Fatal(err)
	}
	if ms.GatherLoads != w.NNZ() {
		t.Fatalf("CSR gathers %d, want nnz %d", ms.GatherLoads, w.NNZ())
	}
	if ms.IndexBytes == 0 {
		t.Fatal("CSR must pay index bytes")
	}
}

func TestCompileBSPCRequiresScheme(t *testing.T) {
	w := tensor.NewMatrix(8, 8)
	if _, _, err := LowerMatrix(MatrixSource{Name: "b", W: w}, DefaultOptions(FormatBSPC, 16), 2); err == nil {
		t.Fatal("BSPC without scheme should error")
	}
}

func TestLoadEliminationSaves(t *testing.T) {
	scheme := prune.BSP{ColRate: 8, RowRate: 1, NumRowGroups: 4, NumColBlocks: 4}
	w := bspMat(3, 64, 64, scheme)
	src := MatrixSource{Name: "w", W: w, Scheme: &scheme}

	with := DefaultOptions(FormatBSPC, 16)
	without := with
	without.EliminateRedundantLoads = false

	_, msWith, err := LowerMatrix(src, with, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, msWithout, err := LowerMatrix(src, without, 4)
	if err != nil {
		t.Fatal(err)
	}
	if msWithout.EliminatedLoads != 0 {
		t.Fatal("pass disabled but loads eliminated")
	}
	if msWith.EliminatedLoads <= 0 {
		t.Fatal("elimination pass saved nothing")
	}
	if msWith.GatherLoads >= msWithout.GatherLoads {
		t.Fatalf("gathers with pass (%d) not below without (%d)",
			msWith.GatherLoads, msWithout.GatherLoads)
	}
	// Conservation: gathers_with + eliminated == gathers_without.
	if msWith.GatherLoads+msWith.EliminatedLoads != msWithout.GatherLoads {
		t.Fatal("load accounting not conserved")
	}
}

func TestReorderImprovesBalance(t *testing.T) {
	// Row pruning creates zero rows clustered by norm, producing imbalance
	// under naive chunking; reorder must fix it.
	scheme := prune.BSP{ColRate: 2, RowRate: 4, NumRowGroups: 8, NumColBlocks: 4}
	w := bspMat(4, 128, 64, scheme)
	src := MatrixSource{Name: "w", W: w, Scheme: &scheme}

	on := DefaultOptions(FormatBSPC, 16)
	off := on
	off.Reorder = false

	_, msOn, err := LowerMatrix(src, on, 8)
	if err != nil {
		t.Fatal(err)
	}
	_, msOff, err := LowerMatrix(src, off, 8)
	if err != nil {
		t.Fatal(err)
	}
	if msOn.LoadImbalance() > msOff.LoadImbalance()+1e-9 {
		t.Fatalf("reorder worsened imbalance: %.3f vs %.3f",
			msOn.LoadImbalance(), msOff.LoadImbalance())
	}
	if msOn.LoadImbalance() > 1.35 {
		t.Fatalf("reordered imbalance %.3f still high", msOn.LoadImbalance())
	}
	// MAC totals unchanged by reordering.
	if msOn.MACs() != msOff.MACs() {
		t.Fatal("reorder changed total work")
	}
}

func TestPlanAggregates(t *testing.T) {
	scheme := prune.BSP{ColRate: 4, RowRate: 1, NumRowGroups: 4, NumColBlocks: 4}
	w := bspMat(5, 32, 32, scheme)
	srcs := []MatrixSource{
		{Name: "a", W: w, Scheme: &scheme},
		{Name: "b", W: w, Scheme: &scheme},
	}
	plan, _, err := CompilePlan("m", srcs, DefaultOptions(FormatBSPC, 16), 4, 15, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Matrices) != 2 {
		t.Fatalf("plan has %d matrices", len(plan.Matrices))
	}
	perTimestep := plan.Matrices[0].MACs() + plan.Matrices[1].MACs()
	if plan.FrameMACs() != perTimestep*15 {
		t.Fatal("FrameMACs aggregation wrong")
	}
	wantOps := float64(2*perTimestep*15 + 100*15)
	if plan.FrameOps() != wantOps {
		t.Fatalf("FrameOps %v, want %v", plan.FrameOps(), wantOps)
	}
	if plan.GOP() != wantOps/1e9 {
		t.Fatal("GOP wrong")
	}
	if plan.String() == "" {
		t.Fatal("empty plan description")
	}
}

func TestMatrixStatsHelpers(t *testing.T) {
	ms := MatrixStats{ThreadMACs: []int{10, 30, 20, 20}}
	if ms.MACs() != 80 {
		t.Fatal("MACs sum wrong")
	}
	if ms.MaxThreadMACs() != 30 {
		t.Fatal("MaxThreadMACs wrong")
	}
	if ms.LoadImbalance() != 1.5 {
		t.Fatalf("LoadImbalance %v, want 1.5", ms.LoadImbalance())
	}
	empty := MatrixStats{}
	if empty.LoadImbalance() != 1 {
		t.Fatal("empty imbalance should be 1")
	}
}

func TestFormatString(t *testing.T) {
	if FormatDense.String() != "dense" || FormatCSR.String() != "csr" || FormatBSPC.String() != "bspc" {
		t.Fatal("format names wrong")
	}
	if Format(9).String() != "unknown" {
		t.Fatal("unknown format name")
	}
}

func TestTuneTilingPicksCheapest(t *testing.T) {
	scheme := prune.BSP{ColRate: 4, RowRate: 1, NumRowGroups: 4, NumColBlocks: 4}
	w := bspMat(6, 32, 32, scheme)
	srcs := []MatrixSource{{Name: "w", W: w, Scheme: &scheme}}
	space := TuneSpace{RowTiles: []int{8, 32}, ColTiles: []int{64}, Unrolls: []int{1, 4}}
	// Cost function prefers RowTile 32 with Unroll 4.
	cost := func(p *Plan) float64 {
		c := 100.0
		if p.Options.Tile.RowTile == 32 {
			c -= 10
		}
		c -= float64(p.Options.Tile.Unroll)
		return c
	}
	plan, _, err := CompilePlan("m", srcs, DefaultOptions(FormatBSPC, 16), 4, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := TuneTiling(plan, space, cost)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tile.RowTile != 32 || res.Tile.Unroll != 4 {
		t.Fatalf("tuner picked %+v", res.Tile)
	}
	if res.Evaluated != 4 {
		t.Fatalf("evaluated %d configs, want 4", res.Evaluated)
	}
}

func TestTuneTilingEmptySpace(t *testing.T) {
	if _, err := TuneTiling(&Plan{Options: DefaultOptions(FormatDense, 16)}, TuneSpace{}, func(*Plan) float64 { return 0 }); err == nil {
		t.Fatal("empty space should error")
	}
}

func TestTuneBlockSize(t *testing.T) {
	w := tensor.NewMatrix(64, 64)
	w.RandNormal(tensor.NewRNG(7), 1)
	space := TuneSpace{RowGroups: []int{2, 8}, ColBlocks: []int{2, 8}}
	// Cost: flat, so the accuracy proxy decides — finer grids retain more
	// energy at a fixed rate and should win.
	flat := func(p *Plan) float64 { return 1 }
	results, best, err := TuneBlockSize(w, 4, 1, 4, space, 1.0, flat)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("results %d", len(results))
	}
	finest := results[0]
	for _, r := range results {
		if r.RowGroups == 8 && r.ColBlocks == 8 {
			finest = r
		}
	}
	if best.RetainedEnergy < finest.RetainedEnergy-1e-9 {
		t.Fatalf("best %+v does not retain max energy %v", best, finest.RetainedEnergy)
	}
}

func TestMaxGatherWidth(t *testing.T) {
	scheme := prune.BSP{ColRate: 4, RowRate: 1, NumRowGroups: 2, NumColBlocks: 2}
	w := bspMat(70, 16, 32, scheme)
	src := MatrixSource{Name: "w", W: w, Scheme: &scheme}
	// BSPC: width = kept cols per block = 16/4 = 4.
	_, ms, err := LowerMatrix(src, DefaultOptions(FormatBSPC, 16), 2)
	if err != nil {
		t.Fatal(err)
	}
	if ms.MaxGatherWidth != 4 {
		t.Fatalf("BSPC max gather width %d, want 4", ms.MaxGatherWidth)
	}
	// CSR: width = max row nnz = kept cols across both blocks = 8.
	_, ms, err = LowerMatrix(src, DefaultOptions(FormatCSR, 16), 2)
	if err != nil {
		t.Fatal(err)
	}
	if ms.MaxGatherWidth != 8 {
		t.Fatalf("CSR max gather width %d, want 8", ms.MaxGatherWidth)
	}
	// Dense: no gathers.
	_, ms, err = LowerMatrix(MatrixSource{Name: "d", W: w}, DefaultOptions(FormatDense, 16), 2)
	if err != nil {
		t.Fatal(err)
	}
	if ms.MaxGatherWidth != 0 {
		t.Fatal("dense should have zero gather width")
	}
}

func TestTuneTilingSearchesPlacements(t *testing.T) {
	scheme := prune.BSP{ColRate: 8, RowRate: 1, NumRowGroups: 4, NumColBlocks: 4}
	w := bspMat(71, 64, 64, scheme)
	srcs := []MatrixSource{{Name: "w", W: w, Scheme: &scheme}}
	space := TuneSpace{
		RowTiles: []int{32}, ColTiles: []int{64}, Unrolls: []int{1},
		Placements: []Placement{PlaceShared, PlaceRegisters, PlaceGlobal},
	}
	// Cost prefers the register placement.
	cost := func(p *Plan) float64 {
		switch p.Options.Tile.Placement {
		case PlaceRegisters:
			return 1
		case PlaceShared:
			return 2
		default:
			return 3
		}
	}
	plan, _, err := CompilePlan("m", srcs, DefaultOptions(FormatBSPC, 16), 4, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := TuneTiling(plan, space, cost)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tile.Placement != PlaceRegisters {
		t.Fatalf("tuner picked %v", res.Tile.Placement)
	}
	if res.Evaluated != 3 {
		t.Fatalf("evaluated %d, want 3", res.Evaluated)
	}
}

func TestPlacementString(t *testing.T) {
	if PlaceShared.String() != "shared" || PlaceRegisters.String() != "registers" || PlaceGlobal.String() != "global" {
		t.Fatal("placement names wrong")
	}
}

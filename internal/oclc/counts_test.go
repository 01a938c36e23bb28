package oclc_test

import (
	"fmt"
	"testing"

	"atf/internal/clblast"
	"atf/internal/core"
	"atf/internal/obs"
	"atf/internal/oclc"
)

// xgemmDirectConfigs are the XgemmDirect configurations the differential
// and exact-count tests launch: the CLBlast defaults plus two smaller
// tilings (vector widths 2 and 1, with and without local padding).
func xgemmDirectConfigs() []*core.Config {
	return []*core.Config{
		clblast.DefaultConfig(),
		core.ConfigFromMap(clblast.XgemmDirectNames, map[string]core.Value{
			"WGD": core.Int(16), "KWID": core.Int(2),
			"MDIMCD": core.Int(8), "NDIMCD": core.Int(8),
			"MDIMAD": core.Int(8), "NDIMBD": core.Int(8),
			"VWMD": core.Int(2), "VWND": core.Int(2),
			"PADA": core.Bool(true), "PADB": core.Bool(false),
		}),
		core.ConfigFromMap(clblast.XgemmDirectNames, map[string]core.Value{
			"WGD": core.Int(8), "KWID": core.Int(1),
			"MDIMCD": core.Int(4), "NDIMCD": core.Int(4),
			"MDIMAD": core.Int(4), "NDIMBD": core.Int(4),
			"VWMD": core.Int(1), "VWND": core.Int(1),
			"PADA": core.Bool(false), "PADB": core.Bool(false),
		}),
	}
}

// runXgemmDirect compiles XgemmDirect for cfg and launches it once under
// eng on fixed 32×32×32 inputs, returning the launch result, a copy of C
// and the launch error.
func runXgemmDirect(t *testing.T, cfg *core.Config, eng oclc.Engine) (*oclc.ExecResult, []float64, error) {
	t.Helper()
	const m, n, k = 32, 32, 32
	prog, err := oclc.Compile(clblast.XgemmDirectSource, cfg.Defines())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	a := oclc.NewGlobalMemory(1, oclc.KFloat, 4, m*k)
	b := oclc.NewGlobalMemory(2, oclc.KFloat, 4, k*n)
	c := oclc.NewGlobalMemory(3, oclc.KFloat, 4, m*n)
	for i := range a.Data {
		a.Data[i] = float64((i%13)-6) * 0.25
	}
	for i := range b.Data {
		b.Data[i] = float64((i%7)-3) * 0.5
	}
	for i := range c.Data {
		c.Data[i] = float64(i % 5)
	}
	global, local := clblast.GlobalLocalSize(cfg, clblast.GemmShape{Name: "diff", M: m, N: n, K: k})
	nd := oclc.NDRange2D(global[0], global[1], local[0], local[1])
	args := []oclc.Arg{
		oclc.IntArg(m), oclc.IntArg(n), oclc.IntArg(k),
		oclc.FloatArg(1.5), oclc.FloatArg(0.5),
		oclc.BufArg(a), oclc.BufArg(b), oclc.BufArg(c),
	}
	res, err := prog.Launch("XgemmDirect", args, nd, oclc.ExecOptions{Engine: eng})
	return res, append([]float64(nil), c.Data...), err
}

// vecCounts is everything one vm-vec launch reports about its own work:
// the simulated-device Counters and divergence flag from the ExecResult,
// and the deltas of the engine's observability counters.
type vecCounts struct {
	counters   oclc.Counters
	divergent  bool
	vmInstrs   uint64 // atf_oclc_vm_instructions_total
	dispatches uint64 // atf_oclc_vm_vec_dispatches_total
	laneInstrs uint64 // atf_oclc_vm_vec_instructions_total
	fallbacks  uint64 // atf_oclc_vm_vec_fallbacks_total
	regathers  uint64 // atf_oclc_vm_vec_regathers_total
}

// measureVec runs launch and returns its counts. The engine metrics are
// process-wide, so the deltas are exact only because no test in this
// package launches kernels in parallel.
func measureVec(t *testing.T, launch func() (*oclc.ExecResult, error)) vecCounts {
	t.Helper()
	before := obs.Default().Snapshot()
	res, err := launch()
	if err != nil {
		t.Fatalf("launch: %v", err)
	}
	after := obs.Default().Snapshot()
	delta := func(name string) uint64 {
		return after.Counter(name).Value - before.Counter(name).Value
	}
	return vecCounts{
		counters:   res.Counters,
		divergent:  res.Divergent,
		vmInstrs:   delta("atf_oclc_vm_instructions_total"),
		dispatches: delta("atf_oclc_vm_vec_dispatches_total"),
		laneInstrs: delta("atf_oclc_vm_vec_instructions_total"),
		fallbacks:  delta("atf_oclc_vm_vec_fallbacks_total"),
		regathers:  delta("atf_oclc_vm_vec_regathers_total"),
	}
}

// TestVecExactCounts pins the exact per-launch numbers of the production
// engine on the tuning kernel and on the two divergence shapes of the
// differential corpus. The Counters and the divergence flag are the
// simulated device's inputs and must never move without a deliberate
// change to the cost model. The instruction, dispatch and lane-instruction
// constants measure the VM's own work: the speed work of ROADMAP.md's
// direction 7 (superinstructions, hoisting work-group-uniform code) will
// change them, and must update them here in the same change.
func TestVecExactCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("XgemmDirect launches are slow")
	}
	want := map[string]vecCounts{
		"xgemm-cfg0": {
			counters: oclc.Counters{IntOps: 1461248, FloatOps: 3072, FMAs: 32768, GlobalLoads: 9216, GlobalStores: 1024,
				LocalLoads: 65536, LocalStores: 8192, PrivateAccess: 67584, Branches: 18432, LoopIters: 114688,
				UnrolledIters: 106496, Barriers: 8192},
			vmInstrs: 1972224, dispatches: 30816, laneInstrs: 1972224,
		},
		"xgemm-cfg1": {
			counters: oclc.Counters{IntOps: 797440, FloatOps: 3072, FMAs: 32768, GlobalLoads: 5120, GlobalStores: 1024,
				LocalLoads: 49152, LocalStores: 4096, PrivateAccess: 67584, Branches: 10240, LoopIters: 36352,
				UnrolledIters: 59392, Barriers: 1024},
			vmInstrs: 1018880, dispatches: 15920, laneInstrs: 1018880,
		},
		"xgemm-cfg2": {
			counters: oclc.Counters{IntOps: 999680, FloatOps: 3072, FMAs: 32768, GlobalLoads: 9216, GlobalStores: 1024,
				LocalLoads: 49152, LocalStores: 8192, PrivateAccess: 67584, Branches: 18432, LoopIters: 69632,
				UnrolledIters: 61440, Barriers: 2048},
			vmInstrs: 1307136, dispatches: 81696, laneInstrs: 1307136,
		},
		"data-dependent-branch": {
			counters: oclc.Counters{IntOps: 204, FloatOps: 48, GlobalLoads: 52, GlobalStores: 8, Branches: 8, LoopIters: 36},
			vmInstrs: 440, dispatches: 77, laneInstrs: 308, fallbacks: 2,
		},
		"divergent-barrier-regather": {
			counters: oclc.Counters{IntOps: 288, FloatOps: 144, GlobalLoads: 16, GlobalStores: 16, LocalLoads: 128,
				LocalStores: 16, Branches: 16, LoopIters: 128, Barriers: 16},
			vmInstrs: 980, dispatches: 118, laneInstrs: 944, fallbacks: 1, regathers: 1,
		},
	}
	got := map[string]vecCounts{}
	for ci, cfg := range xgemmDirectConfigs() {
		got[fmt.Sprintf("xgemm-cfg%d", ci)] = measureVec(t, func() (*oclc.ExecResult, error) {
			res, _, err := runXgemmDirect(t, cfg, oclc.EngineVMVec)
			return res, err
		})
	}
	for _, tc := range diffCorpus {
		if tc.name != "divergent-barrier-regather" && tc.name != "data-dependent-branch" {
			continue
		}
		got[tc.name] = measureVec(t, func() (*oclc.ExecResult, error) {
			r := runDiffCase(t, tc, oclc.EngineVMVec)
			return r.res, r.err
		})
	}
	for name, g := range got {
		if w := want[name]; w != g {
			t.Errorf("%s: counts\n  got  %+v\n  want %+v", name, g, w)
		}
	}
}

package oclc

import (
	"sync"
	"testing"
)

func TestLaunchConfigGeometry(t *testing.T) {
	c := NDRange2D(64, 32, 8, 4)
	if c.Dims() != 2 {
		t.Fatalf("dims = %d", c.Dims())
	}
	if c.WorkGroupSize() != 32 {
		t.Fatalf("wg size = %d", c.WorkGroupSize())
	}
	if c.NumGroups() != 8*8 {
		t.Fatalf("groups = %d", c.NumGroups())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	one := NDRange1D(16, 4)
	if one.Dims() != 1 || one.NumGroups() != 4 {
		t.Fatal("1-D geometry wrong")
	}
}

func TestLaunchConfigValidate(t *testing.T) {
	bad := NDRange1D(10, 3)
	if err := bad.Validate(); err == nil {
		t.Fatal("3 does not divide 10")
	}
	neg := LaunchConfig{Global: [3]int64{0, 1, 1}, Local: [3]int64{1, 1, 1}}
	if err := neg.Validate(); err == nil {
		t.Fatal("zero global must fail")
	}
}

func TestCyclicBarrierReleasesAll(t *testing.T) {
	const n = 8
	b := newCyclicBarrier(n)
	var wg sync.WaitGroup
	counts := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer b.leave()
			for round := 0; round < 5; round++ {
				counts[i]++
				b.await()
			}
		}(i)
	}
	wg.Wait()
	for i, c := range counts {
		if c != 5 {
			t.Fatalf("participant %d completed %d rounds", i, c)
		}
	}
}

func TestCyclicBarrierDivergenceRelease(t *testing.T) {
	// 3 participants block at the barrier, then the 4th leaves without
	// ever reaching it: the barrier must release the waiters, not
	// deadlock. The leaver waits until all three are provably blocked so
	// the scenario is deterministic. (The divergence flag itself comes
	// from barrierDivergence; see TestBarrierDivergence.)
	b := newCyclicBarrier(4)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer b.leave()
			b.await()
		}()
	}
	for {
		b.mu.Lock()
		w := b.waiting
		b.mu.Unlock()
		if w == 3 {
			break
		}
	}
	b.leave() // the 4th exits without awaiting
	wg.Wait()
}

// TestBarrierDivergence pins the divergence flag's definition over
// per-item barrier counts, and that the walker reports it independently
// of how its goroutines happen to be scheduled.
func TestBarrierDivergence(t *testing.T) {
	for _, c := range []struct {
		barriers []int64
		want     bool
	}{
		{[]int64{0, 0, 0}, false},
		{[]int64{2, 2, 2, 2}, false},
		{[]int64{1, 0, 0, 0}, true}, // item 0 waits, the rest finish
		{[]int64{2, 1}, true},       // item 1 finishes while item 0 waits at its second barrier
		{[]int64{0, 1}, false},      // item 0 finishes before item 1 ever waits
		{[]int64{1, 0, 1}, false},   // item 2's arrival, not item 1's exit, releases item 0
	} {
		counters := make([]Counters, len(c.barriers))
		for i, b := range c.barriers {
			counters[i].Barriers = b
		}
		if got := barrierDivergence(counters); got != c.want {
			t.Errorf("barriers %v: divergent = %v, want %v", c.barriers, got, c.want)
		}
	}

	prog, err := Compile(`__kernel void div(__global float* out) {
	  if (get_local_id(0) == 0) { barrier(0); }
	  out[get_global_id(0)] = 1.0f;
	}`, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		out := NewGlobalMemory(1, KFloat, 4, 4)
		res, err := prog.Launch("div", []Arg{BufArg(out)}, NDRange1D(4, 4), ExecOptions{Engine: EngineWalk})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Divergent {
			t.Fatalf("launch %d: walker did not flag divergence", i)
		}
	}
}

func TestGroupDecodeOrder(t *testing.T) {
	// Work-group ids must decode row-major over a 2-D grid: group g maps
	// to (gx, gy) = (g % ngx, (g / ngx) % ngy).
	src := `
__kernel void ids(__global float* out, const int ngx) {
  if (get_local_id(0) == 0 && get_local_id(1) == 0) {
    out[get_group_id(1)*ngx + get_group_id(0)] = 1.0f;
  }
}`
	prog, err := Compile(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := NewGlobalMemory(1, KFloat, 4, 6)
	_, err = prog.Launch("ids", []Arg{BufArg(out), IntArg(3)},
		NDRange2D(6, 4, 2, 2), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out.Data {
		if v != 1 {
			t.Fatalf("group cell %d not visited", i)
		}
	}
}

func TestGemmCounterAccounting(t *testing.T) {
	// One full XgemmDirect-shaped accounting check on a tiny tile: with
	// WGD=4, MDIMCD=NDIMCD=2 (4 threads), K=4 and one work-group, the
	// compute loop performs exactly WGD*WGD*WGD = 64 FMAs per group.
	src := `
__kernel void mini(__global float* a, __global float* b, __global float* c) {
  __local float alm[WGD][WGD];
  __local float blm[WGD][WGD];
  const int tm = get_local_id(0);
  const int tn = get_local_id(1);
  for (int i = 0; i < WGD/2; i++) {
    alm[tm][tn*2 + i % 2] = a[tm*WGD + tn];
    blm[tm][tn*2 + i % 2] = b[tm*WGD + tn];
  }
  barrier(CLK_LOCAL_MEM_FENCE);
  float acc[WGD/2][WGD/2];
  for (int mi = 0; mi < WGD/2; mi++) {
    for (int ni = 0; ni < WGD/2; ni++) { acc[mi][ni] = 0.0f; }
  }
  for (int k = 0; k < WGD; k++) {
    for (int mi = 0; mi < WGD/2; mi++) {
      for (int ni = 0; ni < WGD/2; ni++) {
        acc[mi][ni] = fma(alm[k][mi*2+tm], blm[k][ni*2+tn], acc[mi][ni]);
      }
    }
  }
  c[tm*WGD + tn] = acc[0][0];
}`
	prog, err := Compile(src, map[string]string{"WGD": "4"})
	if err != nil {
		t.Fatal(err)
	}
	a := NewGlobalMemory(1, KFloat, 4, 16)
	b := NewGlobalMemory(2, KFloat, 4, 16)
	c := NewGlobalMemory(3, KFloat, 4, 16)
	res, err := prog.Launch("mini", []Arg{BufArg(a), BufArg(b), BufArg(c)},
		NDRange2D(2, 2, 2, 2), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// 4 WIs × (WGD × (WGD/2)² FMAs) = 4 × 4×4 = 64.
	if res.Counters.FMAs != 64 {
		t.Fatalf("FMAs = %d, want 64", res.Counters.FMAs)
	}
	if res.Counters.Barriers != 4 {
		t.Fatalf("barriers = %d, want 4 (one per WI)", res.Counters.Barriers)
	}
	if res.Counters.LocalStores == 0 || res.Counters.LocalLoads == 0 {
		t.Fatal("local traffic not counted")
	}
}

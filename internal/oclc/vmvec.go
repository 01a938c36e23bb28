package oclc

// Lockstep-vectorized work-group execution (EngineVMVec).
//
// Per-item bytecode frames (vm.go) would pay one full dispatch loop per
// work-item: for a 64-item group, every instruction fetched, decoded, and
// switched on 64 times. This engine executes the group in lockstep instead
// — one dispatch per instruction per *group* — over structure-of-arrays
// register files:
// register r of lane l lives at regs[r*width+l], so each operand index
// addresses a contiguous [width]rval column and the per-lane work inside a
// case is a tight loop over the active-lane list.
//
// Divergence. Lockstep only works while every active lane agrees on the
// next instruction. The only instructions that can disagree are the
// conditional branches (opJumpFalse/opJumpTrue/opBrCmpFalse*). Branches
// the compiler proved work-item-ID-independent (uniform.go) carry a hint
// and are decided once per group; unhinted branches evaluate the condition
// per lane — side-effect-free — and, when lanes disagree, the group
// *scatters*: each live lane's column state is copied into the ordinary
// per-item vmWI frames (with the branch itself unexecuted) and the scalar
// cooperative scheduler (runScalar) takes over. At the next barrier release the
// scheduler attempts to *re-gather*: if the lanes converged back to an
// identical frame stack with per-register kind agreement, their state is
// copied back into columns and lockstep resumes.
//
// Equivalence. Bit-for-bit agreement with the walker, whose semantics the
// scalar frames reproduce per work-item, is load-bearing —
// differential_test.go compares buffers, Counters, error text, and the
// divergence flag across engines:
//
//   - Kind uniformity: starting from uniform frames, every register's
//     scalar kind (.k) is identical across active lanes after every
//     instruction — kernel arguments are group-uniform, every opcode
//     derives its result kind from operand kinds (never values), and
//     per-lane results (loads, queries, builtins) have kind fixed by the
//     instruction. Kind-dependent decisions (float-vs-int promotion,
//     opStoreVar's target kind) are therefore hoisted to the first active
//     lane, and the re-gather check only needs per-register kind
//     agreement, not value agreement.
//   - Counters are per-lane either way; hoisting never skips a bump.
//   - Lane deaths (errors, and completions while others wait) must raise
//     the walker's divergence flag exactly as the scalar scheduler does.
//     In vector mode deaths accumulate per segment (the span between
//     barriers) and the flag protocol is replayed at the next barrier in
//     lane order (replaySegment); on a mid-segment scatter the dead lanes
//     scatter as vmDying and the scalar scheduler replays their death
//     events, again in lane order — the same event order a scalar-only
//     run produces.
//   - Memory effects: within one instruction lanes execute in ascending
//     lane order, the same order the scalar scheduler uses between
//     barriers. Cross-instruction interleaving differs, but that is only
//     observable by kernels racing on shared memory between barriers,
//     whose results are undefined under every engine.
//
// The one intentional divergence: a panic inside a vector instruction
// (defensive; real failures surface as errors) kills every active lane
// with the scalar frames' "work-item panic" error instead of just one,
// because half-executed column state cannot be attributed to a single
// lane.

import (
	"fmt"

	"atf/internal/obs"
)

// Vector-engine metrics (DESIGN.md §3c). Dispatch/instruction counts are
// accumulated in scheduler-local fields and published once per launch
// (vmScheduler.release); the mask-shape events are rare enough to hit the
// atomics directly.
var (
	mVecDispatches = obs.NewCounter("atf_oclc_vm_vec_dispatches_total",
		"Group-level instruction dispatches by the lockstep-vectorized engine")
	mVecInstructions = obs.NewCounter("atf_oclc_vm_vec_instructions_total",
		"Per-lane instructions retired in vector mode (mean active width = instructions/dispatches)")
	mVecFallbacks = obs.NewCounter("atf_oclc_vm_vec_fallbacks_total",
		"Scalar fallbacks: a work-group scattered to per-item frames on branch divergence")
	mVecRegathers = obs.NewCounter("atf_oclc_vm_vec_regathers_total",
		"Successful lane re-convergences back into lockstep at a barrier release")
	mVecLanesActive = obs.NewHistogram("atf_oclc_vm_vec_lanes_active",
		"Active lanes at vector-segment starts (group entry, lane deaths, re-gathers)",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256})
)

// vecFrame is one vectorized activation record: the SoA register file for
// every lane of the group plus the shared resume point. Frame 0 reuses the
// scheduler's arena; deeper frames pool their columns across calls.
type vecFrame struct {
	fn   *Function
	vc   *vmCode
	regs []rval // SoA: register r of lane l at regs[r*width+l]
	ip   int
	dst  int32 // caller register column receiving the return value
}

// vmDying marks a lane that failed during the current vector segment when
// the group scatters to scalar frames mid-segment: the scalar scheduler
// must still process its death event (parties--, divergence-flag check) in
// lane order, exactly where a scalar-only run would have.
const vmDying vmStatus = 255

// runGroup executes one work-group on the calling goroutine: in lockstep
// where possible and on the scalar cooperative scheduler (runScalar)
// across divergent regions. It reports the walker's divergence flag and
// the instructions retired.
func (s *vmScheduler) runGroup(wg *wgCtx, agg *Counters, counters []Counters, errs []error) (bool, int64, error) {
	fn, vc := s.fn, s.vc
	n := int(wg.launch.WorkGroupSize())
	for i := 0; i < n; i++ {
		counters[i] = Counters{}
		errs[i] = nil
	}
	wis := s.wis
	lin := 0
	for lz := int64(0); lz < wg.launch.Local[2]; lz++ {
		for ly := int64(0); ly < wg.launch.Local[1]; ly++ {
			for lx := int64(0); lx < wg.launch.Local[0]; lx++ {
				wi := &wis[lin]
				wi.w = wiCtx{
					prog: s.p,
					wg:   wg,
					ctr:  &counters[lin],
					lid:  [3]int64{lx, ly, lz},
					gid: [3]int64{
						wg.grp[0]*wg.launch.Local[0] + lx,
						wg.grp[1]*wg.launch.Local[1] + ly,
						wg.grp[2]*wg.launch.Local[2] + lz,
					},
					lin: lin,
				}
				wi.status = vmRunning
				wi.err = nil
				wi.icount = 0
				lin++
			}
		}
	}

	// Vector state: all lanes live, one segment, frame 0 over the arena.
	s.width = n
	s.ctrs = counters
	s.laneErrs = errs
	s.groupDiv = false
	s.lanesDirty = false
	s.segCtr = Counters{}
	if cap(s.laneActive) >= n {
		s.laneActive = s.laneActive[:n]
	} else {
		s.laneActive = make([]bool, n)
	}
	s.lanes = s.lanes[:0]
	s.segLanes = s.segLanes[:0]
	s.diedInSeg = s.diedInSeg[:0]
	for i := 0; i < n; i++ {
		s.laneActive[i] = true
		s.lanes = append(s.lanes, i)
		s.segLanes = append(s.segLanes, i)
	}
	for cap(s.vframes) < 1 {
		s.vframes = append(s.vframes[:cap(s.vframes)], vecFrame{})
	}
	s.vframes = s.vframes[:1]
	f0 := &s.vframes[0]
	f0.fn, f0.vc, f0.ip, f0.dst = fn, vc, 0, 0
	f0.regs = s.arena[:n*vc.numRegs]
	// Arena columns are reused across groups un-zeroed: arguments are
	// rewritten here (a kernel may assign to a parameter slot), and every
	// other register is written before read (declarations zero/init,
	// temporaries are defined by their expression).
	for i, a := range s.args {
		col := f0.regs[fn.Params[i].Slot*n:]
		rv := argToRval(a)
		for l := 0; l < n; l++ {
			col[l] = rv
		}
	}

	startLE := s.vecLaneExecs
	mVecLanesActive.Observe(float64(n))
	for {
		if s.vecRun() {
			break // every lane finished or failed in lockstep
		}
		mVecFallbacks.Inc()
		s.scatter()
		if !s.runScalar() {
			break // group finished on the scalar scheduler
		}
		mVecRegathers.Inc()
		mVecLanesActive.Observe(float64(len(s.lanes)))
	}

	// Flush the final segment's batched counters into its surviving lanes
	// (dead lanes flushed at laneFail, scattered segments at scatter).
	for _, l := range s.lanes {
		counters[l].Add(&s.segCtr)
	}
	s.segCtr = Counters{}

	icount := s.vecLaneExecs - startLE
	for i := range wis {
		icount += wis[i].icount
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			return false, icount, errs[i]
		}
	}
	for i := 0; i < n; i++ {
		agg.Add(&counters[i])
	}
	return s.groupDiv, icount, nil
}

// laneFail kills one lane with err. The lane list is rebuilt lazily at the
// top of the dispatch loop so an instruction can fail several lanes while
// iterating the current list. The dying lane's share of the segment's
// batched counters is flushed here — the bump order inside each opcode
// decides whether the fatal instruction's increments are included.
func (s *vmScheduler) laneFail(l int, err error) {
	s.ctrs[l].Add(&s.segCtr)
	s.laneActive[l] = false
	s.laneErrs[l] = err
	wi := &s.wis[l]
	wi.err = err
	wi.status = vmDone
	s.diedInSeg = append(s.diedInSeg, l)
	s.lanesDirty = true
}

// rebuildLanes filters dead lanes out of the active list in place.
func (s *vmScheduler) rebuildLanes() {
	out := s.lanes[:0]
	for _, l := range s.lanes {
		if s.laneActive[l] {
			out = append(out, l)
		}
	}
	s.lanes = out
	s.lanesDirty = false
}

// replaySegment runs at a barrier every active lane reached in lockstep:
// it replays the cyclicBarrier arrive/leave protocol over the lanes that
// were live when the segment started, in lane order — the event order the
// scalar scheduler produces, since between two barriers each lane has
// exactly one event (arrival or death) and the pass visits lanes
// ascending. parties starts at the segment's live count because every
// earlier death was already replayed at a previous barrier (or scatter).
func (s *vmScheduler) replaySegment() {
	waiting, parties := 0, len(s.segLanes)
	for _, l := range s.segLanes {
		if s.laneActive[l] {
			waiting++
		} else {
			parties--
			if parties > 0 && waiting >= parties {
				s.groupDiv = true
			}
		}
	}
	s.segLanes = append(s.segLanes[:0], s.lanes...)
	s.diedInSeg = s.diedInSeg[:0]
}

func cmpInts(kind int32, a, b int64) bool {
	switch kind {
	case cmpEq:
		return a == b
	case cmpNe:
		return a != b
	case cmpLt:
		return a < b
	case cmpGt:
		return a > b
	case cmpLe:
		return a <= b
	default:
		return a >= b
	}
}

func cmpFloats(kind int32, a, b float64) bool {
	switch kind {
	case cmpEq:
		return a == b
	case cmpNe:
		return a != b
	case cmpLt:
		return a < b
	case cmpGt:
		return a > b
	case cmpLe:
		return a <= b
	default:
		return a >= b
	}
}

func brCmpRes(kind int32, isF bool, l, r rval) bool {
	if isF {
		return cmpFloats(kind, l.asFloat(), r.asFloat())
	}
	return cmpInts(kind, l.i, r.i)
}

// vecRun executes in lockstep until the group finishes (returns true) or
// an unhinted branch diverges (returns false, with the top frame's ip at
// the branch and no side effects applied — the scalar re-execution of the
// branch reproduces its counters). Instruction semantics transcribe
// vmWI.run case by case; kind-dependent decisions are hoisted to the first
// active lane under the kind-uniformity invariant (file comment).
func (s *vmScheduler) vecRun() (done bool) {
	w := s.width
	wis := s.wis
	var nd, nl int64
	defer func() {
		s.vecDispatches += nd
		s.vecLaneExecs += nl
		if r := recover(); r != nil {
			err := fmt.Errorf("oclc: work-item panic: %v", r)
			for _, l := range s.lanes {
				s.laneFail(l, err)
			}
			s.rebuildLanes()
			done = true
		}
	}()
frames:
	for {
		f := &s.vframes[len(s.vframes)-1]
		vc := f.vc
		code := vc.code
		regs := f.regs
		ip := f.ip
		for {
			if s.lanesDirty {
				s.rebuildLanes()
				if len(s.lanes) == 0 {
					return true
				}
				mVecLanesActive.Observe(float64(len(s.lanes)))
			}
			lanes := s.lanes
			in := &code[ip]
			nd++
			nl += int64(len(lanes))
			switch in.op {
			case opNop:
				ip++

			case opJump:
				ip = int(in.imm)
			case opJumpFalse, opJumpTrue:
				acol := regs[int(in.a)*w:]
				t0 := acol[lanes[0]].truthy()
				if in.d == 0 { // no uniformity hint: check lane agreement
					for _, l := range lanes[1:] {
						if acol[l].truthy() != t0 {
							f.ip = ip
							return false
						}
					}
				}
				if t0 == (in.op == opJumpTrue) {
					ip = int(in.imm)
				} else {
					ip++
				}
			case opReturn, opReturnNil:
				conv := (in.op == opReturn || in.imm == 1) && !f.fn.Ret.Ptr && f.fn.Ret.Kind != KVoid
				depth := len(s.vframes) - 1
				if depth == 0 {
					for _, l := range lanes {
						wis[l].status = vmDone
					}
					return true
				}
				dcol := s.vframes[depth-1].regs[int(f.dst)*w:]
				if in.op == opReturn {
					src := regs[int(in.a)*w:]
					if conv {
						kk := f.fn.Ret.Kind
						for _, l := range lanes {
							dcol[l] = convert(src[l], kk)
						}
					} else {
						for _, l := range lanes {
							dcol[l] = src[l]
						}
					}
				} else {
					var rv rval
					if conv {
						rv = convert(rv, f.fn.Ret.Kind)
					}
					for _, l := range lanes {
						dcol[l] = rv
					}
				}
				s.vframes = s.vframes[:depth]
				continue frames
			case opErr:
				err := vc.errTab[in.imm]
				for _, l := range lanes {
					s.laneFail(l, err)
				}
				s.rebuildLanes()
				return true
			case opBarrier:
				// Every active lane arrives at once: a barrier in lockstep
				// is a counter bump plus the divergence-flag replay for
				// lanes that died since the last one — no suspension.
				s.segCtr.Barriers++
				s.replaySegment()
				ip++

			case opCtrInt:
				s.segCtr.IntOps += in.imm
				ip++
			case opCtrFloat:
				s.segCtr.FloatOps += in.imm
				ip++
			case opCtrBranch:
				s.segCtr.Branches += in.imm
				ip++
			case opCtrLoop:
				s.segCtr.LoopIters++
				ip++
			case opCtrUnroll:
				s.segCtr.UnrolledIters++
				ip++
			case opCount:
				s.segCtr.Add(&vc.countTab[in.imm])
				ip++

			case opConstI:
				acol := regs[int(in.a)*w:]
				for _, l := range lanes {
					acol[l].setInt(in.imm)
				}
				ip++
			case opConstF:
				acol := regs[int(in.a)*w:]
				for _, l := range lanes {
					acol[l].setFloat(in.f)
				}
				ip++
			case opConstR:
				acol := regs[int(in.a)*w:]
				rv := vc.rvalTab[in.imm]
				for _, l := range lanes {
					acol[l] = rv
				}
				ip++
			case opMove:
				acol, bcol := regs[int(in.a)*w:], regs[int(in.b)*w:]
				for _, l := range lanes {
					acol[l] = bcol[l]
				}
				ip++
			case opConvert:
				acol, bcol := regs[int(in.a)*w:], regs[int(in.b)*w:]
				switch ValKind(in.c) {
				case KFloat:
					for _, l := range lanes {
						acol[l].setFloat(bcol[l].asFloat())
					}
				case KInt, KBool:
					for _, l := range lanes {
						acol[l].setInt(bcol[l].asInt())
					}
				default:
					for _, l := range lanes {
						acol[l] = bcol[l]
					}
				}
				ip++
			case opBool:
				acol, bcol := regs[int(in.a)*w:], regs[int(in.b)*w:]
				for _, l := range lanes {
					if bcol[l].truthy() {
						acol[l].setInt(1)
					} else {
						acol[l].setInt(0)
					}
				}
				ip++
			case opStoreVar:
				acol, bcol := regs[int(in.a)*w:], regs[int(in.b)*w:]
				switch acol[lanes[0]].k {
				case KFloat:
					for _, l := range lanes {
						acol[l].setFloat(bcol[l].asFloat())
					}
				case KInt:
					for _, l := range lanes {
						acol[l].setInt(bcol[l].asInt())
					}
				default:
					for _, l := range lanes {
						acol[l] = bcol[l]
					}
				}
				ip++
			case opIncVar:
				acol, bcol := regs[int(in.a)*w:], regs[int(in.b)*w:]
				if bcol[lanes[0]].k == KFloat {
					s.segCtr.FloatOps++
					for _, l := range lanes {
						old := bcol[l].f
						nv := old + float64(in.imm)
						bcol[l].f = nv
						if in.c != 0 {
							acol[l].setFloat(old)
						} else {
							acol[l].setFloat(nv)
						}
					}
				} else {
					s.segCtr.IntOps++
					for _, l := range lanes {
						old := bcol[l].i
						nv := old + in.imm
						bcol[l].i = nv
						if in.c != 0 {
							acol[l].setInt(old)
						} else {
							acol[l].setInt(nv)
						}
					}
				}
				ip++
			case opIncVal:
				acol, bcol := regs[int(in.a)*w:], regs[int(in.b)*w:]
				if bcol[lanes[0]].k == KFloat {
					s.segCtr.FloatOps++
					for _, l := range lanes {
						acol[l].setFloat(bcol[l].f + float64(in.imm))
					}
				} else {
					s.segCtr.IntOps++
					for _, l := range lanes {
						acol[l].setInt(bcol[l].i + in.imm)
					}
				}
				ip++

			case opAdd:
				acol, bcol, ccol := regs[int(in.a)*w:], regs[int(in.b)*w:], regs[int(in.c)*w:]
				if bcol[lanes[0]].k == KFloat || ccol[lanes[0]].k == KFloat {
					s.segCtr.FloatOps++
					for _, l := range lanes {
						acol[l].setFloat(bcol[l].asFloat() + ccol[l].asFloat())
					}
				} else {
					s.segCtr.IntOps++
					for _, l := range lanes {
						acol[l].setInt(bcol[l].i + ccol[l].i)
					}
				}
				ip++
			case opSub:
				acol, bcol, ccol := regs[int(in.a)*w:], regs[int(in.b)*w:], regs[int(in.c)*w:]
				if bcol[lanes[0]].k == KFloat || ccol[lanes[0]].k == KFloat {
					s.segCtr.FloatOps++
					for _, l := range lanes {
						acol[l].setFloat(bcol[l].asFloat() - ccol[l].asFloat())
					}
				} else {
					s.segCtr.IntOps++
					for _, l := range lanes {
						acol[l].setInt(bcol[l].i - ccol[l].i)
					}
				}
				ip++
			case opMul:
				acol, bcol, ccol := regs[int(in.a)*w:], regs[int(in.b)*w:], regs[int(in.c)*w:]
				if bcol[lanes[0]].k == KFloat || ccol[lanes[0]].k == KFloat {
					s.segCtr.FloatOps++
					for _, l := range lanes {
						acol[l].setFloat(bcol[l].asFloat() * ccol[l].asFloat())
					}
				} else {
					s.segCtr.IntOps++
					for _, l := range lanes {
						acol[l].setInt(bcol[l].i * ccol[l].i)
					}
				}
				ip++
			case opDiv:
				acol, bcol, ccol := regs[int(in.a)*w:], regs[int(in.b)*w:], regs[int(in.c)*w:]
				if bcol[lanes[0]].k == KFloat || ccol[lanes[0]].k == KFloat {
					s.segCtr.FloatOps++
					for _, l := range lanes {
						acol[l].setFloat(bcol[l].asFloat() / ccol[l].asFloat())
					}
				} else {
					// The bump precedes the zero checks: a lane dying here
					// flushes with this instruction's IntOps included, as the
					// scalar frames count it.
					s.segCtr.IntOps++
					var zerr error
					for _, l := range lanes {
						if ccol[l].i == 0 {
							if zerr == nil {
								zerr = errf(in.pos, "integer division by zero")
							}
							s.laneFail(l, zerr)
							continue
						}
						acol[l].setInt(bcol[l].i / ccol[l].i)
					}
				}
				ip++
			case opMod:
				acol, bcol, ccol := regs[int(in.a)*w:], regs[int(in.b)*w:], regs[int(in.c)*w:]
				if bcol[lanes[0]].k == KFloat || ccol[lanes[0]].k == KFloat {
					err := errf(in.pos, "%% requires integer operands")
					for _, l := range lanes {
						s.laneFail(l, err)
					}
					s.rebuildLanes()
					return true
				}
				s.segCtr.IntOps++
				var zerr error
				for _, l := range lanes {
					if ccol[l].i == 0 {
						if zerr == nil {
							zerr = errf(in.pos, "integer modulo by zero")
						}
						s.laneFail(l, zerr)
						continue
					}
					acol[l].setInt(bcol[l].i % ccol[l].i)
				}
				ip++
			case opShl, opShr, opBitAnd, opBitOr, opBitXor:
				acol, bcol, ccol := regs[int(in.a)*w:], regs[int(in.b)*w:], regs[int(in.c)*w:]
				if bcol[lanes[0]].k == KFloat || ccol[lanes[0]].k == KFloat {
					err := errf(in.pos, "bitwise operator on float")
					for _, l := range lanes {
						s.laneFail(l, err)
					}
					s.rebuildLanes()
					return true
				}
				s.segCtr.IntOps++
				for _, l := range lanes {
					a, b := bcol[l].i, ccol[l].i
					var v int64
					switch in.op {
					case opShl:
						v = a << uint(b)
					case opShr:
						v = a >> uint(b)
					case opBitAnd:
						v = a & b
					case opBitOr:
						v = a | b
					default:
						v = a ^ b
					}
					acol[l].setInt(v)
				}
				ip++
			case opEq, opNe, opLt, opGt, opLe, opGe:
				acol, bcol, ccol := regs[int(in.a)*w:], regs[int(in.b)*w:], regs[int(in.c)*w:]
				kind := int32(in.op - opEq)
				s.segCtr.IntOps++
				if bcol[lanes[0]].k == KFloat || ccol[lanes[0]].k == KFloat {
					for _, l := range lanes {
						if cmpFloats(kind, bcol[l].asFloat(), ccol[l].asFloat()) {
							acol[l].setInt(1)
						} else {
							acol[l].setInt(0)
						}
					}
				} else {
					for _, l := range lanes {
						if cmpInts(kind, bcol[l].i, ccol[l].i) {
							acol[l].setInt(1)
						} else {
							acol[l].setInt(0)
						}
					}
				}
				ip++

			default:
				nip, st := s.vecStep(in, f, regs, lanes, ip)
				switch st {
				case stepDone:
					return true
				case stepDiverge:
					f.ip = ip
					return false
				case stepFrames:
					continue frames
				}
				ip = nip
			}
		}
	}
}

// vecStep outcome for opcodes handled outside vecRun's main switch.
type vecStep int

const (
	stepNext    vecStep = iota // continue at the returned ip
	stepFrames                 // frame stack changed; re-enter the frame loop
	stepDone                   // every lane finished or failed
	stepDiverge                // unhinted branch disagreed; scatter
)

// vecStep executes the immediate-operand, branch, memory, and call opcodes
// — the long tail split out of vecRun to keep both switches compilable as
// dense jump tables.
func (s *vmScheduler) vecStep(in *instr, f *vecFrame, regs []rval, lanes []int, ip int) (int, vecStep) {
	w := s.width
	wis := s.wis
	vc := f.vc
	switch in.op {
	case opAddImm:
		acol, bcol := regs[int(in.a)*w:], regs[int(in.b)*w:]
		if bcol[lanes[0]].k == KFloat {
			s.segCtr.FloatOps++
			fimm := float64(in.imm)
			for _, l := range lanes {
				acol[l].setFloat(bcol[l].f + fimm)
			}
		} else {
			s.segCtr.IntOps++
			for _, l := range lanes {
				acol[l].setInt(bcol[l].i + in.imm)
			}
		}
	case opSubImm:
		acol, bcol := regs[int(in.a)*w:], regs[int(in.b)*w:]
		if bcol[lanes[0]].k == KFloat {
			s.segCtr.FloatOps++
			fimm := float64(in.imm)
			for _, l := range lanes {
				acol[l].setFloat(bcol[l].f - fimm)
			}
		} else {
			s.segCtr.IntOps++
			for _, l := range lanes {
				acol[l].setInt(bcol[l].i - in.imm)
			}
		}
	case opRSubImm:
		acol, bcol := regs[int(in.a)*w:], regs[int(in.b)*w:]
		if bcol[lanes[0]].k == KFloat {
			s.segCtr.FloatOps++
			fimm := float64(in.imm)
			for _, l := range lanes {
				acol[l].setFloat(fimm - bcol[l].f)
			}
		} else {
			s.segCtr.IntOps++
			for _, l := range lanes {
				acol[l].setInt(in.imm - bcol[l].i)
			}
		}
	case opMulImm:
		acol, bcol := regs[int(in.a)*w:], regs[int(in.b)*w:]
		if bcol[lanes[0]].k == KFloat {
			s.segCtr.FloatOps++
			fimm := float64(in.imm)
			for _, l := range lanes {
				acol[l].setFloat(bcol[l].f * fimm)
			}
		} else {
			s.segCtr.IntOps++
			for _, l := range lanes {
				acol[l].setInt(bcol[l].i * in.imm)
			}
		}
	case opDivImm:
		acol, bcol := regs[int(in.a)*w:], regs[int(in.b)*w:]
		if bcol[lanes[0]].k == KFloat {
			s.segCtr.FloatOps++
			fimm := float64(in.imm)
			for _, l := range lanes {
				acol[l].setFloat(bcol[l].f / fimm)
			}
		} else {
			s.segCtr.IntOps++
			for _, l := range lanes {
				acol[l].setInt(bcol[l].i / in.imm)
			}
		}
	case opModImm:
		acol, bcol := regs[int(in.a)*w:], regs[int(in.b)*w:]
		if bcol[lanes[0]].k == KFloat {
			err := errf(in.pos, "%% requires integer operands")
			for _, l := range lanes {
				s.laneFail(l, err)
			}
			s.rebuildLanes()
			return 0, stepDone
		}
		s.segCtr.IntOps++
		for _, l := range lanes {
			acol[l].setInt(bcol[l].i % in.imm)
		}
	case opShlImm, opShrImm, opBitAndImm, opBitOrImm, opBitXorImm:
		acol, bcol := regs[int(in.a)*w:], regs[int(in.b)*w:]
		if bcol[lanes[0]].k == KFloat {
			err := errf(in.pos, "bitwise operator on float")
			for _, l := range lanes {
				s.laneFail(l, err)
			}
			s.rebuildLanes()
			return 0, stepDone
		}
		s.segCtr.IntOps++
		for _, l := range lanes {
			a := bcol[l].i
			var v int64
			switch in.op {
			case opShlImm:
				v = a << uint(in.imm)
			case opShrImm:
				v = a >> uint(in.imm)
			case opBitAndImm:
				v = a & in.imm
			case opBitOrImm:
				v = a | in.imm
			default:
				v = a ^ in.imm
			}
			acol[l].setInt(v)
		}
	case opEqImm, opNeImm, opLtImm, opGtImm, opLeImm, opGeImm:
		acol, bcol := regs[int(in.a)*w:], regs[int(in.b)*w:]
		kind := int32(in.op - opEqImm)
		s.segCtr.IntOps++
		if bcol[lanes[0]].k == KFloat {
			fimm := float64(in.imm)
			for _, l := range lanes {
				if cmpFloats(kind, bcol[l].f, fimm) {
					acol[l].setInt(1)
				} else {
					acol[l].setInt(0)
				}
			}
		} else {
			for _, l := range lanes {
				if cmpInts(kind, bcol[l].i, in.imm) {
					acol[l].setInt(1)
				} else {
					acol[l].setInt(0)
				}
			}
		}
	case opBrCmpFalse, opBrCmpFalseImm:
		lcol := regs[int(in.a)*w:]
		var rcol []rval
		rimm := intVal(in.imm)
		if in.op == opBrCmpFalse {
			rcol = regs[int(in.b)*w:]
		}
		kind := in.d & 0xff
		isF := lcol[lanes[0]].k == KFloat
		r0 := rimm
		if rcol != nil {
			r0 = rcol[lanes[0]]
			isF = isF || r0.k == KFloat
		}
		res := brCmpRes(kind, isF, lcol[lanes[0]], r0)
		if in.d&brUniform == 0 { // no uniformity hint: check lane agreement
			for _, l := range lanes[1:] {
				rl := rimm
				if rcol != nil {
					rl = rcol[l]
				}
				if brCmpRes(kind, isF, lcol[l], rl) != res {
					return 0, stepDiverge
				}
			}
		}
		cb := (in.d >> 8) & 0xff
		s.segCtr.IntOps++
		if cb == cbIterBranch {
			s.segCtr.Branches++
		}
		if res {
			switch cb {
			case cbIterLoop:
				s.segCtr.LoopIters++
			case cbIterUnroll:
				s.segCtr.UnrolledIters++
			}
			return ip + 1, stepNext
		}
		return int(in.c), stepNext

	case opNeg:
		acol, bcol := regs[int(in.a)*w:], regs[int(in.b)*w:]
		if bcol[lanes[0]].k == KFloat {
			s.segCtr.FloatOps++
			for _, l := range lanes {
				acol[l].setFloat(-bcol[l].f)
			}
		} else {
			s.segCtr.IntOps++
			for _, l := range lanes {
				acol[l].setInt(-bcol[l].i)
			}
		}
	case opNot:
		acol, bcol := regs[int(in.a)*w:], regs[int(in.b)*w:]
		s.segCtr.IntOps++
		for _, l := range lanes {
			if bcol[l].truthy() {
				acol[l].setInt(0)
			} else {
				acol[l].setInt(1)
			}
		}
	case opBitNot:
		acol, bcol := regs[int(in.a)*w:], regs[int(in.b)*w:]
		s.segCtr.IntOps++
		for _, l := range lanes {
			acol[l].setInt(^bcol[l].asInt())
		}

	case opCheckPtr:
		acol := regs[int(in.a)*w:]
		var err error
		for _, l := range lanes {
			if v := acol[l]; v.k != KPtr || v.mem == nil {
				if err == nil {
					err = errf(in.pos, "subscript of non-pointer value")
				}
				s.laneFail(l, err)
			}
		}
	case opCheck2D:
		acol := regs[int(in.a)*w:]
		var err error
		for _, l := range lanes {
			if acol[l].dim1 <= 0 {
				if err == nil {
					err = errf(in.pos, "2-D subscript of 1-D array")
				}
				s.laneFail(l, err)
			}
		}
	case opLoad1:
		acol, bcol, ccol := regs[int(in.a)*w:], regs[int(in.b)*w:], regs[int(in.c)*w:]
		base0 := bcol[lanes[0]]
		if base0.k != KPtr || base0.mem == nil {
			// The kind invariant makes a non-pointer base group-wide, and
			// every lane's mem comes from the same producing instruction
			// (a uniform argument or an opArray), so lane 0 decides.
			err := errf(in.pos, "subscript of non-pointer value")
			for _, l := range lanes {
				s.laneFail(l, err)
			}
			s.rebuildLanes()
			return 0, stepDone
		}
		// Space and element kind come from the same declaration on every
		// lane even when the mem objects differ (private arrays), so the
		// access accounting and value dispatch hoist out of the lane loop.
		var log *AccessLog
		switch base0.mem.Space {
		case SpaceGlobal:
			s.segCtr.GlobalLoads++
			log = wis[lanes[0]].w.wg.log
		case SpaceLocal:
			s.segCtr.LocalLoads++
		default:
			s.segCtr.PrivateAccess++
		}
		isF := base0.mem.Elem == KFloat
		site := int(in.imm)
		for _, l := range lanes {
			base := bcol[l]
			m := base.mem
			off := base.off + ccol[l].asInt()
			if log != nil {
				log.record(site, l, byteAddr(m, off), false)
			}
			if uint64(off) >= uint64(len(m.Data)) {
				_, err := m.load(off)
				s.laneFail(l, err)
				continue
			}
			if isF {
				acol[l].setFloat(m.loadCell(off))
			} else {
				acol[l].setInt(int64(m.loadCell(off)))
			}
		}
	case opLoad2:
		acol, bcol, ccol, dcol := regs[int(in.a)*w:], regs[int(in.b)*w:], regs[int(in.c)*w:], regs[int(in.d)*w:]
		base0 := bcol[lanes[0]]
		if base0.k != KPtr || base0.mem == nil {
			err := errf(in.pos, "subscript of non-pointer value")
			for _, l := range lanes {
				s.laneFail(l, err)
			}
			s.rebuildLanes()
			return 0, stepDone
		}
		space := base0.mem.Space
		var log *AccessLog
		s.segCtr.IntOps++ // row-major address computation
		switch space {
		case SpaceGlobal:
			s.segCtr.GlobalLoads++
			log = wis[lanes[0]].w.wg.log
		case SpaceLocal:
			s.segCtr.LocalLoads++
		default:
			s.segCtr.PrivateAccess++
		}
		isF := base0.mem.Elem == KFloat
		site := int(in.imm)
		var dimerr error
		for _, l := range lanes {
			base := bcol[l]
			if base.dim1 <= 0 {
				if dimerr == nil {
					dimerr = errf(in.pos, "2-D subscript of 1-D array")
				}
				s.laneFail(l, dimerr)
				// The scalar frames fail this lane before the address
				// computation and the access: undo the hoisted bumps the
				// flush just credited it with.
				c := &s.ctrs[l]
				c.IntOps--
				switch space {
				case SpaceGlobal:
					c.GlobalLoads--
				case SpaceLocal:
					c.LocalLoads--
				default:
					c.PrivateAccess--
				}
				continue
			}
			m := base.mem
			off := base.off + ccol[l].asInt()*base.dim1 + dcol[l].asInt()
			if log != nil {
				log.record(site, l, byteAddr(m, off), false)
			}
			if uint64(off) >= uint64(len(m.Data)) {
				_, err := m.load(off)
				s.laneFail(l, err)
				continue
			}
			if isF {
				acol[l].setFloat(m.loadCell(off))
			} else {
				acol[l].setInt(int64(m.loadCell(off)))
			}
		}
	case opStore1:
		acol, bcol, ccol := regs[int(in.a)*w:], regs[int(in.b)*w:], regs[int(in.c)*w:]
		base0 := acol[lanes[0]]
		if base0.k != KPtr || base0.mem == nil {
			err := errf(in.pos, "subscript of non-pointer value")
			for _, l := range lanes {
				s.laneFail(l, err)
			}
			s.rebuildLanes()
			return 0, stepDone
		}
		var log *AccessLog
		switch base0.mem.Space {
		case SpaceGlobal:
			s.segCtr.GlobalStores++
			log = wis[lanes[0]].w.wg.log
		case SpaceLocal:
			s.segCtr.LocalStores++
		default:
			s.segCtr.PrivateAccess++
		}
		isF := base0.mem.Elem == KFloat
		site := int(in.imm)
		for _, l := range lanes {
			base := acol[l]
			m := base.mem
			off := base.off + bcol[l].asInt()
			if log != nil {
				log.record(site, l, byteAddr(m, off), true)
			}
			if uint64(off) >= uint64(len(m.Data)) {
				s.laneFail(l, m.storePlain(off, ccol[l]))
				continue
			}
			if isF {
				m.Data[off] = ccol[l].asFloat()
			} else {
				m.Data[off] = float64(ccol[l].asInt())
			}
		}
	case opStore2:
		acol, bcol, ccol, dcol := regs[int(in.a)*w:], regs[int(in.b)*w:], regs[int(in.c)*w:], regs[int(in.d)*w:]
		base0 := acol[lanes[0]]
		if base0.k != KPtr || base0.mem == nil {
			err := errf(in.pos, "subscript of non-pointer value")
			for _, l := range lanes {
				s.laneFail(l, err)
			}
			s.rebuildLanes()
			return 0, stepDone
		}
		space := base0.mem.Space
		var log *AccessLog
		s.segCtr.IntOps++
		switch space {
		case SpaceGlobal:
			s.segCtr.GlobalStores++
			log = wis[lanes[0]].w.wg.log
		case SpaceLocal:
			s.segCtr.LocalStores++
		default:
			s.segCtr.PrivateAccess++
		}
		isF := base0.mem.Elem == KFloat
		site := int(in.imm)
		var dimerr error
		for _, l := range lanes {
			base := acol[l]
			if base.dim1 <= 0 {
				if dimerr == nil {
					dimerr = errf(in.pos, "2-D subscript of 1-D array")
				}
				s.laneFail(l, dimerr)
				c := &s.ctrs[l]
				c.IntOps--
				switch space {
				case SpaceGlobal:
					c.GlobalStores--
				case SpaceLocal:
					c.LocalStores--
				default:
					c.PrivateAccess--
				}
				continue
			}
			m := base.mem
			off := base.off + bcol[l].asInt()*base.dim1 + ccol[l].asInt()
			if log != nil {
				log.record(site, l, byteAddr(m, off), true)
			}
			if uint64(off) >= uint64(len(m.Data)) {
				s.laneFail(l, m.storePlain(off, dcol[l]))
				continue
			}
			if isF {
				m.Data[off] = dcol[l].asFloat()
			} else {
				m.Data[off] = float64(dcol[l].asInt())
			}
		}
	case opCheckDim:
		acol := regs[int(in.a)*w:]
		for _, l := range lanes {
			if v := acol[l].asInt(); v <= 0 {
				d := vc.declTab[in.imm]
				s.laneFail(l, fmt.Errorf("oclc: %s: array %q dimension %d is %d", d.Pos, d.Name, int(in.c), v))
			}
		}
	case opArray:
		d := vc.declTab[in.imm]
		acol, bcol := regs[int(in.a)*w:], regs[int(in.b)*w:]
		var ccol []rval
		if in.c >= 0 {
			ccol = regs[int(in.c)*w:]
		}
		for _, l := range lanes {
			size := bcol[l].asInt()
			var d1 int64
			if ccol != nil {
				d1 = ccol[l].asInt()
				size *= d1
			}
			const elemBytes = 4
			var mem *Memory
			if d.Type.Space == SpaceLocal {
				var err error
				mem, err = wis[l].w.wg.localAlloc(d, d.Type.Kind, elemBytes, size)
				if err != nil {
					s.laneFail(l, err)
					continue
				}
			} else {
				mem = &Memory{Space: SpacePrivate, Elem: d.Type.Kind, ElemBytes: elemBytes, Data: make([]float64, size)}
			}
			ptr := rval{k: KPtr, mem: mem}
			if ccol != nil {
				ptr.dim1 = d1
			}
			acol[l] = ptr
		}

	case opWIQuery:
		acol := regs[int(in.a)*w:]
		d := int(in.c)
		// Only the IDs vary by lane; every other query is group-uniform and
		// computed once.
		switch in.b {
		case wqGlobalID:
			for _, l := range lanes {
				acol[l].setInt(wis[l].w.gid[d])
			}
		case wqLocalID:
			for _, l := range lanes {
				acol[l].setInt(wis[l].w.lid[d])
			}
		default:
			wc := &wis[lanes[0]].w
			var v int64
			switch in.b {
			case wqGroupID:
				v = wc.wg.grp[d]
			case wqGlobalSize:
				v = wc.wg.launch.Global[d]
			case wqLocalSize:
				v = wc.wg.launch.Local[d]
			case wqNumGroups:
				v = wc.wg.launch.Global[d] / wc.wg.launch.Local[d]
			default: // wqWorkDim
				v = int64(wc.wg.launch.Dims())
			}
			for _, l := range lanes {
				acol[l].setInt(v)
			}
		}
	case opFMA:
		acol, bcol, ccol, dcol := regs[int(in.a)*w:], regs[int(in.b)*w:], regs[int(in.c)*w:], regs[int(in.d)*w:]
		s.segCtr.FMAs++
		for _, l := range lanes {
			acol[l].setFloat(bcol[l].asFloat()*ccol[l].asFloat() + dcol[l].asFloat())
		}
	case opCallBuiltin:
		nargs := int(in.c)
		if cap(s.argBuf) < nargs {
			s.argBuf = make([]rval, nargs)
		}
		ab := s.argBuf[:nargs]
		acol := regs[int(in.a)*w:]
		bfn := vc.builtins[in.imm]
		call := vc.callTab[in.imm]
		for _, l := range lanes {
			for i := 0; i < nargs; i++ {
				ab[i] = regs[(int(in.b)+i)*w+l]
			}
			rv, err := bfn(&wis[l].w, call, ab)
			if err != nil {
				s.laneFail(l, err)
				continue
			}
			acol[l] = rv
		}
	case opCallFn:
		callee := vc.fnTab[in.imm]
		cvc := callee.vm
		s.segCtr.Calls++
		depth := len(s.vframes)
		if depth >= vmMaxDepth {
			err := errf(in.pos, "call depth exceeded")
			for _, l := range lanes {
				s.laneFail(l, err)
			}
			s.rebuildLanes()
			return 0, stepDone
		}
		f.ip = ip + 1
		// Reuse the vector frame (and its SoA columns) pooled at this
		// depth; reuse without zeroing is sound for the same reason as the
		// scalar frames — every register is written before read.
		for cap(s.vframes) <= depth {
			s.vframes = append(s.vframes[:cap(s.vframes)], vecFrame{})
		}
		s.vframes = s.vframes[:depth+1]
		nf := &s.vframes[depth]
		need := cvc.numRegs * w
		if cap(nf.regs) >= need {
			nf.regs = nf.regs[:need]
		} else {
			nf.regs = make([]rval, need)
		}
		nf.fn, nf.vc, nf.ip, nf.dst = callee, cvc, 0, in.a
		for i := range callee.Params {
			src := regs[(int(in.b)+i)*w:]
			dst := nf.regs[callee.Params[i].Slot*w:]
			for _, l := range lanes {
				dst[l] = src[l]
			}
		}
		return 0, stepFrames

	default:
		err := fmt.Errorf("oclc: unknown opcode %d", in.op)
		for _, l := range lanes {
			s.laneFail(l, err)
		}
		s.rebuildLanes()
		return 0, stepDone
	}
	return ip + 1, stepNext
}

// scatter copies every live lane's column state into its per-item scalar
// frames (vmWI), with the top frame's ip at the diverging branch and no
// side effects from it applied — the scalar re-execution of the branch
// reproduces its counters exactly. Lanes that died during the current
// segment scatter as vmDying so the scalar scheduler replays their death
// events in lane order (runScalar); lanes dead from earlier segments had
// their events replayed at a barrier already and stay vmDone.
func (s *vmScheduler) scatter() {
	w := s.width
	wis := s.wis
	nf := len(s.vframes)
	// Scattered lanes leave the segment: flush their share of the batched
	// counters before the scalar scheduler resumes incrementing per item.
	for _, l := range s.lanes {
		s.ctrs[l].Add(&s.segCtr)
	}
	s.segCtr = Counters{}
	for _, l := range s.lanes {
		wi := &wis[l]
		for cap(wi.frames) < nf {
			wi.frames = append(wi.frames[:cap(wi.frames)], vmFrame{})
		}
		wi.frames = wi.frames[:nf]
		for d := 0; d < nf; d++ {
			vf := &s.vframes[d]
			fr := &wi.frames[d]
			nr := vf.vc.numRegs
			// Scalar register files are allocated per lane and frame
			// depth, and pooled with the scheduler.
			if cap(fr.regs) >= nr {
				fr.regs = fr.regs[:nr]
			} else {
				fr.regs = make([]rval, nr)
			}
			fr.fn, fr.vc, fr.ip, fr.dst = vf.fn, vf.vc, vf.ip, vf.dst
			for r := 0; r < nr; r++ {
				fr.regs[r] = vf.regs[r*w+l]
			}
		}
		wi.status = vmRunning
	}
	for _, l := range s.diedInSeg {
		wis[l].status = vmDying
	}
	s.diedInSeg = s.diedInSeg[:0]
}

// runScalar drives the scattered group on the scalar cooperative protocol
// (the walker's cyclicBarrier semantics in linear-local-id order, plus
// vmDying event replay) until either the group finishes (returns false) or
// a barrier release lets every surviving lane re-converge into lockstep
// (returns true).
//
// The protocol releases waiters only when waiting >= parties, and parties
// counts every lane that still owes an event — so at the moment a release
// fires, no unvisited runnable lane remains in the pass. Breaking out to
// attempt a re-gather and, on failure, restarting the pass from lane 0 is
// therefore order-equivalent to the scalar scheduler's uninterrupted pass.
func (s *vmScheduler) runScalar() bool {
	wis := s.wis
	errs := s.laneErrs
	parties := 0
	live := 0
	for i := range wis {
		switch wis[i].status {
		case vmRunning, vmDying:
			parties++
			live++
		case vmWaiting:
			live++ // unreachable at entry; defensive
		}
	}
	waiting := 0
	release := func() {
		for i := range wis {
			if wis[i].status == vmWaiting {
				wis[i].status = vmRunning
			}
		}
		waiting = 0
	}
	for live > 0 {
		progress := false
		released := false
		for i := range wis {
			wi := &wis[i]
			switch wi.status {
			case vmDying:
				// Replay the death event of a lane that failed mid-segment
				// before the scatter (cyclicBarrier.leave).
				progress = true
				wi.status = vmDone
				live--
				parties--
				if parties > 0 && waiting >= parties {
					if waiting > 0 {
						s.groupDiv = true
					}
					release()
					released = true
				}
			case vmRunning:
				progress = true
				wi.run()
				switch wi.status {
				case vmWaiting:
					// cyclicBarrier.await: the last live arriver releases.
					waiting++
					if waiting >= parties {
						release()
						released = true
					}
				case vmDone:
					live--
					errs[i] = wi.err
					parties--
					if parties > 0 && waiting >= parties {
						if waiting > 0 {
							s.groupDiv = true
						}
						release()
						released = true
					}
				}
			default:
				continue
			}
			if released {
				break
			}
		}
		if released && live > 0 {
			if s.tryGather() {
				return true
			}
			continue
		}
		if !progress && !released {
			break // defensive; the barrier protocol cannot starve
		}
	}
	return false
}

// frameWatermark returns the register index below which a suspended scalar
// frame's registers are live. The top frame of a released lane sits just
// past an opBarrier and deeper frames just past an opCallFn, both of which
// record the compiler's temp watermark (opcode.go); registers at or above
// it are dead, so stale per-lane garbage there cannot block a re-gather.
// Anything unexpected falls back to "all registers live" — sound, merely
// stricter.
func frameWatermark(f *vmFrame, top bool) int {
	wm := f.vc.numRegs
	if prev := f.ip - 1; prev >= 0 && prev < len(f.vc.code) {
		in := &f.vc.code[prev]
		if top && in.op == opBarrier {
			wm = int(in.a)
		} else if !top && in.op == opCallFn {
			wm = int(in.d)
		}
	}
	return wm
}

// tryGather attempts to re-converge the surviving lanes into lockstep
// after a barrier release: every live lane must hold an identical frame
// stack (same functions, resume points, and return destinations) with
// per-register kind agreement below each frame's live watermark. On
// success the scalar state is copied back into SoA columns and vector
// bookkeeping is reset for a fresh segment.
func (s *vmScheduler) tryGather() bool {
	wis := s.wis
	w := s.width
	lanes := s.lanes[:0]
	for i := 0; i < w; i++ {
		if wis[i].status == vmRunning {
			lanes = append(lanes, i)
		}
	}
	s.lanes = lanes
	if len(lanes) == 0 {
		return false
	}
	ref := &wis[lanes[0]]
	nf := len(ref.frames)
	for _, l := range lanes[1:] {
		if len(wis[l].frames) != nf {
			return false
		}
	}
	for d := 0; d < nf; d++ {
		rf := &ref.frames[d]
		for _, l := range lanes[1:] {
			of := &wis[l].frames[d]
			if of.fn != rf.fn || of.vc != rf.vc || of.ip != rf.ip || of.dst != rf.dst {
				return false
			}
		}
		wm := frameWatermark(rf, d == nf-1)
		for r := 0; r < wm; r++ {
			k := rf.regs[r].k
			for _, l := range lanes[1:] {
				if wis[l].frames[d].regs[r].k != k {
					return false
				}
			}
		}
	}
	for cap(s.vframes) < nf {
		s.vframes = append(s.vframes[:cap(s.vframes)], vecFrame{})
	}
	s.vframes = s.vframes[:nf]
	for d := 0; d < nf; d++ {
		rf := &ref.frames[d]
		vf := &s.vframes[d]
		vf.fn, vf.vc, vf.ip, vf.dst = rf.fn, rf.vc, rf.ip, rf.dst
		need := rf.vc.numRegs * w
		if d == 0 {
			vf.regs = s.arena[:need]
		} else if cap(vf.regs) >= need {
			vf.regs = vf.regs[:need]
		} else {
			vf.regs = make([]rval, need)
		}
		wm := frameWatermark(rf, d == nf-1)
		for r := 0; r < wm; r++ {
			col := vf.regs[r*w:]
			for _, l := range lanes {
				col[l] = wis[l].frames[d].regs[r]
			}
		}
	}
	for i := 0; i < w; i++ {
		s.laneActive[i] = false
	}
	for _, l := range lanes {
		s.laneActive[l] = true
	}
	s.segLanes = append(s.segLanes[:0], lanes...)
	s.diedInSeg = s.diedInSeg[:0]
	s.lanesDirty = false
	return true
}

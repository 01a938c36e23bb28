package oclc

import (
	"fmt"
	"sync"

	"atf/internal/obs"
)

// VM execution metric (DESIGN.md §3c): total bytecode instructions
// retired. Accumulated into a per-work-item local and published once per
// Launch so the hot loop never touches an atomic.
var mVMInstructions = obs.NewCounter("atf_oclc_vm_instructions_total",
	"Bytecode instructions retired by the oclc register VM")

// vmStatus is a work-item's scheduling state under the cooperative
// group scheduler.
type vmStatus uint8

const (
	vmRunning vmStatus = iota
	vmWaiting          // suspended at a barrier
	vmDone
)

// vmFrame is one activation record: a function's register file plus its
// resume point.
type vmFrame struct {
	fn   *Function
	vc   *vmCode
	regs []rval
	ip   int
	dst  int32 // caller register receiving the return value
}

// vmMaxDepth bounds the VM call stack. The walker's equivalent limit is
// the goroutine stack, which kills the process; the VM degrades into a
// per-work-item error instead.
const vmMaxDepth = 1 << 14

// vmWI is one work-item executing bytecode. Unlike the walker, which
// parks a goroutine per work-item in a cyclicBarrier, VM work-items are
// resumable: run executes until the work-item finishes, fails, or
// reaches a barrier, and the group scheduler resumes it after the group
// synchronizes. Running a whole group on one goroutine — no spawns, no
// futex round-trips per barrier — is a large part of the VM's speedup.
type vmWI struct {
	w      wiCtx // counter/launch context shared with builtin dispatch
	frames []vmFrame
	status vmStatus
	err    error
	icount int64
}

func (wi *vmWI) fail(err error) {
	wi.err = err
	wi.status = vmDone
}

// run executes bytecode until the work-item suspends at a barrier,
// finishes, or fails. Panics map to the walker's "work-item panic"
// recovery.
func (wi *vmWI) run() {
	var n int64
	defer func() {
		wi.icount += n
		if r := recover(); r != nil {
			wi.fail(fmt.Errorf("oclc: work-item panic: %v", r))
		}
	}()
	ctr := wi.w.ctr
frames:
	for {
		f := &wi.frames[len(wi.frames)-1]
		vc := f.vc
		code := vc.code
		regs := f.regs
		ip := f.ip
		for {
			in := &code[ip]
			n++
			switch in.op {
			case opNop:
				ip++

			case opJump:
				ip = int(in.imm)
			case opJumpFalse:
				if !regs[in.a].truthy() {
					ip = int(in.imm)
				} else {
					ip++
				}
			case opJumpTrue:
				if regs[in.a].truthy() {
					ip = int(in.imm)
				} else {
					ip++
				}
			case opReturn, opReturnNil:
				var rv rval
				if in.op == opReturn {
					rv = regs[in.a]
				}
				// Explicit returns (including bare "return;") convert to
				// the declared return type; falling off the end does not.
				if (in.op == opReturn || in.imm == 1) && !f.fn.Ret.Ptr && f.fn.Ret.Kind != KVoid {
					rv = convert(rv, f.fn.Ret.Kind)
				}
				dst := f.dst
				wi.frames = wi.frames[:len(wi.frames)-1]
				if len(wi.frames) == 0 {
					wi.status = vmDone
					return
				}
				wi.frames[len(wi.frames)-1].regs[dst] = rv
				continue frames
			case opErr:
				wi.fail(vc.errTab[in.imm])
				return
			case opBarrier:
				ctr.Barriers++
				f.ip = ip + 1
				wi.status = vmWaiting
				return

			case opCtrInt:
				ctr.IntOps += in.imm
				ip++
			case opCtrFloat:
				ctr.FloatOps += in.imm
				ip++
			case opCtrBranch:
				ctr.Branches += in.imm
				ip++
			case opCtrLoop:
				ctr.LoopIters++
				ip++
			case opCtrUnroll:
				ctr.UnrolledIters++
				ip++
			case opCount:
				ctr.Add(&vc.countTab[in.imm])
				ip++

			case opConstI:
				regs[in.a] = intVal(in.imm)
				ip++
			case opConstF:
				regs[in.a] = floatVal(in.f)
				ip++
			case opConstR:
				regs[in.a] = vc.rvalTab[in.imm]
				ip++
			case opMove:
				regs[in.a] = regs[in.b]
				ip++
			case opConvert:
				regs[in.a] = convert(regs[in.b], ValKind(in.c))
				ip++
			case opBool:
				if regs[in.b].truthy() {
					regs[in.a] = intVal(1)
				} else {
					regs[in.a] = intVal(0)
				}
				ip++
			case opStoreVar:
				v := regs[in.b]
				if cur := regs[in.a]; cur.k == KFloat || cur.k == KInt {
					v = convert(v, cur.k)
				}
				regs[in.a] = v
				ip++
			case opIncVar:
				old := regs[in.b]
				var nv rval
				if old.k == KFloat {
					ctr.FloatOps++
					nv = floatVal(old.f + float64(in.imm))
				} else {
					ctr.IntOps++
					nv = intVal(old.i + in.imm)
				}
				regs[in.b] = nv
				if in.c != 0 {
					regs[in.a] = old
				} else {
					regs[in.a] = nv
				}
				ip++
			case opIncVal:
				old := regs[in.b]
				if old.k == KFloat {
					ctr.FloatOps++
					regs[in.a] = floatVal(old.f + float64(in.imm))
				} else {
					ctr.IntOps++
					regs[in.a] = intVal(old.i + in.imm)
				}
				ip++

			case opAdd:
				l, r := regs[in.b], regs[in.c]
				if l.k == KFloat || r.k == KFloat {
					ctr.FloatOps++
					regs[in.a] = floatVal(l.asFloat() + r.asFloat())
				} else {
					ctr.IntOps++
					regs[in.a] = intVal(l.i + r.i)
				}
				ip++
			case opSub:
				l, r := regs[in.b], regs[in.c]
				if l.k == KFloat || r.k == KFloat {
					ctr.FloatOps++
					regs[in.a] = floatVal(l.asFloat() - r.asFloat())
				} else {
					ctr.IntOps++
					regs[in.a] = intVal(l.i - r.i)
				}
				ip++
			case opMul:
				l, r := regs[in.b], regs[in.c]
				if l.k == KFloat || r.k == KFloat {
					ctr.FloatOps++
					regs[in.a] = floatVal(l.asFloat() * r.asFloat())
				} else {
					ctr.IntOps++
					regs[in.a] = intVal(l.i * r.i)
				}
				ip++
			case opDiv:
				l, r := regs[in.b], regs[in.c]
				if l.k == KFloat || r.k == KFloat {
					ctr.FloatOps++
					regs[in.a] = floatVal(l.asFloat() / r.asFloat())
				} else {
					ctr.IntOps++
					if r.i == 0 {
						wi.fail(errf(in.pos, "integer division by zero"))
						return
					}
					regs[in.a] = intVal(l.i / r.i)
				}
				ip++
			case opMod:
				l, r := regs[in.b], regs[in.c]
				if l.k == KFloat || r.k == KFloat {
					wi.fail(errf(in.pos, "%% requires integer operands"))
					return
				}
				ctr.IntOps++
				if r.i == 0 {
					wi.fail(errf(in.pos, "integer modulo by zero"))
					return
				}
				regs[in.a] = intVal(l.i % r.i)
				ip++
			case opShl, opShr, opBitAnd, opBitOr, opBitXor:
				l, r := regs[in.b], regs[in.c]
				if l.k == KFloat || r.k == KFloat {
					wi.fail(errf(in.pos, "bitwise operator on float"))
					return
				}
				ctr.IntOps++
				var v int64
				switch in.op {
				case opShl:
					v = l.i << uint(r.i)
				case opShr:
					v = l.i >> uint(r.i)
				case opBitAnd:
					v = l.i & r.i
				case opBitOr:
					v = l.i | r.i
				default:
					v = l.i ^ r.i
				}
				regs[in.a] = intVal(v)
				ip++
			case opEq, opNe, opLt, opGt, opLe, opGe:
				l, r := regs[in.b], regs[in.c]
				ctr.IntOps++
				var res bool
				if l.k == KFloat || r.k == KFloat {
					a, b := l.asFloat(), r.asFloat()
					switch in.op {
					case opEq:
						res = a == b
					case opNe:
						res = a != b
					case opLt:
						res = a < b
					case opGt:
						res = a > b
					case opLe:
						res = a <= b
					default:
						res = a >= b
					}
				} else {
					a, b := l.i, r.i
					switch in.op {
					case opEq:
						res = a == b
					case opNe:
						res = a != b
					case opLt:
						res = a < b
					case opGt:
						res = a > b
					case opLe:
						res = a <= b
					default:
						res = a >= b
					}
				}
				if res {
					regs[in.a] = intVal(1)
				} else {
					regs[in.a] = intVal(0)
				}
				ip++
			case opAddImm:
				l := regs[in.b]
				if l.k == KFloat {
					ctr.FloatOps++
					regs[in.a] = floatVal(l.f + float64(in.imm))
				} else {
					ctr.IntOps++
					regs[in.a] = intVal(l.i + in.imm)
				}
				ip++
			case opSubImm:
				l := regs[in.b]
				if l.k == KFloat {
					ctr.FloatOps++
					regs[in.a] = floatVal(l.f - float64(in.imm))
				} else {
					ctr.IntOps++
					regs[in.a] = intVal(l.i - in.imm)
				}
				ip++
			case opRSubImm:
				l := regs[in.b]
				if l.k == KFloat {
					ctr.FloatOps++
					regs[in.a] = floatVal(float64(in.imm) - l.f)
				} else {
					ctr.IntOps++
					regs[in.a] = intVal(in.imm - l.i)
				}
				ip++
			case opMulImm:
				l := regs[in.b]
				if l.k == KFloat {
					ctr.FloatOps++
					regs[in.a] = floatVal(l.f * float64(in.imm))
				} else {
					ctr.IntOps++
					regs[in.a] = intVal(l.i * in.imm)
				}
				ip++
			case opDivImm:
				l := regs[in.b]
				if l.k == KFloat {
					ctr.FloatOps++
					regs[in.a] = floatVal(l.f / float64(in.imm))
				} else {
					ctr.IntOps++
					regs[in.a] = intVal(l.i / in.imm)
				}
				ip++
			case opModImm:
				l := regs[in.b]
				if l.k == KFloat {
					wi.fail(errf(in.pos, "%% requires integer operands"))
					return
				}
				ctr.IntOps++
				regs[in.a] = intVal(l.i % in.imm)
				ip++
			case opShlImm, opShrImm, opBitAndImm, opBitOrImm, opBitXorImm:
				l := regs[in.b]
				if l.k == KFloat {
					wi.fail(errf(in.pos, "bitwise operator on float"))
					return
				}
				ctr.IntOps++
				var v int64
				switch in.op {
				case opShlImm:
					v = l.i << uint(in.imm)
				case opShrImm:
					v = l.i >> uint(in.imm)
				case opBitAndImm:
					v = l.i & in.imm
				case opBitOrImm:
					v = l.i | in.imm
				default:
					v = l.i ^ in.imm
				}
				regs[in.a] = intVal(v)
				ip++
			case opEqImm, opNeImm, opLtImm, opGtImm, opLeImm, opGeImm:
				l := regs[in.b]
				ctr.IntOps++
				var res bool
				if l.k == KFloat {
					a, b := l.f, float64(in.imm)
					switch in.op {
					case opEqImm:
						res = a == b
					case opNeImm:
						res = a != b
					case opLtImm:
						res = a < b
					case opGtImm:
						res = a > b
					case opLeImm:
						res = a <= b
					default:
						res = a >= b
					}
				} else {
					a, b := l.i, in.imm
					switch in.op {
					case opEqImm:
						res = a == b
					case opNeImm:
						res = a != b
					case opLtImm:
						res = a < b
					case opGtImm:
						res = a > b
					case opLeImm:
						res = a <= b
					default:
						res = a >= b
					}
				}
				if res {
					regs[in.a] = intVal(1)
				} else {
					regs[in.a] = intVal(0)
				}
				ip++

			case opBrCmpFalse, opBrCmpFalseImm:
				l := regs[in.a]
				var r rval
				if in.op == opBrCmpFalse {
					r = regs[in.b]
				} else {
					r = intVal(in.imm)
				}
				ctr.IntOps++
				kind := in.d & 0xff
				var res bool
				if l.k == KFloat || r.k == KFloat {
					a, b := l.asFloat(), r.asFloat()
					switch kind {
					case cmpEq:
						res = a == b
					case cmpNe:
						res = a != b
					case cmpLt:
						res = a < b
					case cmpGt:
						res = a > b
					case cmpLe:
						res = a <= b
					default:
						res = a >= b
					}
				} else {
					a, b := l.i, r.i
					switch kind {
					case cmpEq:
						res = a == b
					case cmpNe:
						res = a != b
					case cmpLt:
						res = a < b
					case cmpGt:
						res = a > b
					case cmpLe:
						res = a <= b
					default:
						res = a >= b
					}
				}
				cb := (in.d >> 8) & 0xff // mask off the brUniform hint bit
				if cb == cbIterBranch {
					ctr.Branches++
				}
				if res {
					switch cb {
					case cbIterLoop:
						ctr.LoopIters++
					case cbIterUnroll:
						ctr.UnrolledIters++
					}
					ip++
				} else {
					ip = int(in.c)
				}

			case opNeg:
				v := regs[in.b]
				if v.k == KFloat {
					ctr.FloatOps++
					regs[in.a] = floatVal(-v.f)
				} else {
					ctr.IntOps++
					regs[in.a] = intVal(-v.i)
				}
				ip++
			case opNot:
				ctr.IntOps++
				if regs[in.b].truthy() {
					regs[in.a] = intVal(0)
				} else {
					regs[in.a] = intVal(1)
				}
				ip++
			case opBitNot:
				ctr.IntOps++
				regs[in.a] = intVal(^regs[in.b].asInt())
				ip++

			case opCheckPtr:
				if v := regs[in.a]; v.k != KPtr || v.mem == nil {
					wi.fail(errf(in.pos, "subscript of non-pointer value"))
					return
				}
				ip++
			case opCheck2D:
				if regs[in.a].dim1 <= 0 {
					wi.fail(errf(in.pos, "2-D subscript of 1-D array"))
					return
				}
				ip++
			case opLoad1:
				base := regs[in.b]
				if base.k != KPtr || base.mem == nil {
					wi.fail(errf(in.pos, "subscript of non-pointer value"))
					return
				}
				off := base.off + regs[in.c].asInt()
				wi.w.countAccess(base.mem, off, int(in.imm), false)
				rv, err := base.mem.load(off)
				if err != nil {
					wi.fail(err)
					return
				}
				regs[in.a] = rv
				ip++
			case opLoad2:
				base := regs[in.b]
				if base.k != KPtr || base.mem == nil {
					wi.fail(errf(in.pos, "subscript of non-pointer value"))
					return
				}
				if base.dim1 <= 0 {
					wi.fail(errf(in.pos, "2-D subscript of 1-D array"))
					return
				}
				off := base.off + regs[in.c].asInt()*base.dim1 + regs[in.d].asInt()
				ctr.IntOps++ // row-major address computation
				wi.w.countAccess(base.mem, off, int(in.imm), false)
				rv, err := base.mem.load(off)
				if err != nil {
					wi.fail(err)
					return
				}
				regs[in.a] = rv
				ip++
			case opStore1:
				base := regs[in.a]
				if base.k != KPtr || base.mem == nil {
					wi.fail(errf(in.pos, "subscript of non-pointer value"))
					return
				}
				off := base.off + regs[in.b].asInt()
				wi.w.countAccess(base.mem, off, int(in.imm), true)
				if err := base.mem.store(off, regs[in.c]); err != nil {
					wi.fail(err)
					return
				}
				ip++
			case opStore2:
				base := regs[in.a]
				if base.k != KPtr || base.mem == nil {
					wi.fail(errf(in.pos, "subscript of non-pointer value"))
					return
				}
				if base.dim1 <= 0 {
					wi.fail(errf(in.pos, "2-D subscript of 1-D array"))
					return
				}
				off := base.off + regs[in.b].asInt()*base.dim1 + regs[in.c].asInt()
				ctr.IntOps++
				wi.w.countAccess(base.mem, off, int(in.imm), true)
				if err := base.mem.store(off, regs[in.d]); err != nil {
					wi.fail(err)
					return
				}
				ip++
			case opCheckDim:
				if v := regs[in.a].asInt(); v <= 0 {
					d := vc.declTab[in.imm]
					wi.fail(fmt.Errorf("oclc: %s: array %q dimension %d is %d", d.Pos, d.Name, int(in.c), v))
					return
				}
				ip++
			case opArray:
				d := vc.declTab[in.imm]
				d0 := regs[in.b].asInt()
				size := d0
				var d1 int64
				if in.c >= 0 {
					d1 = regs[in.c].asInt()
					size *= d1
				}
				const elemBytes = 4
				var mem *Memory
				if d.Type.Space == SpaceLocal {
					var err error
					mem, err = wi.w.wg.localAlloc(d, d.Type.Kind, elemBytes, size)
					if err != nil {
						wi.fail(err)
						return
					}
				} else {
					mem = &Memory{Space: SpacePrivate, Elem: d.Type.Kind, ElemBytes: elemBytes, Data: make([]float64, size)}
				}
				ptr := rval{k: KPtr, mem: mem}
				if in.c >= 0 {
					ptr.dim1 = d1
				}
				regs[in.a] = ptr
				ip++

			case opWIQuery:
				var v int64
				d := int(in.c)
				switch in.b {
				case wqGlobalID:
					v = wi.w.gid[d]
				case wqLocalID:
					v = wi.w.lid[d]
				case wqGroupID:
					v = wi.w.wg.grp[d]
				case wqGlobalSize:
					v = wi.w.wg.launch.Global[d]
				case wqLocalSize:
					v = wi.w.wg.launch.Local[d]
				case wqNumGroups:
					v = wi.w.wg.launch.Global[d] / wi.w.wg.launch.Local[d]
				default: // wqWorkDim
					v = int64(wi.w.wg.launch.Dims())
				}
				regs[in.a] = intVal(v)
				ip++
			case opFMA:
				ctr.FMAs++
				regs[in.a] = floatVal(regs[in.b].asFloat()*regs[in.c].asFloat() + regs[in.d].asFloat())
				ip++
			case opCallBuiltin:
				rv, err := vc.builtins[in.imm](&wi.w, vc.callTab[in.imm], regs[in.b:in.b+in.c])
				if err != nil {
					wi.fail(err)
					return
				}
				regs[in.a] = rv
				ip++
			case opCallFn:
				callee := vc.fnTab[in.imm]
				cvc := callee.vm
				ctr.Calls++
				depth := len(wi.frames)
				if depth >= vmMaxDepth {
					wi.fail(errf(in.pos, "call depth exceeded"))
					return
				}
				f.ip = ip + 1
				// Reuse the frame (and its register file) pooled at this
				// depth by an earlier call; reuse without zeroing is sound
				// because every register is written before it is read:
				// parameters by the copy below, variables by their
				// declaration's zero/init instructions, temporaries by the
				// expression that defines them.
				if depth == cap(wi.frames) {
					wi.frames = append(wi.frames, vmFrame{})
				} else {
					wi.frames = wi.frames[:depth+1]
				}
				nf := &wi.frames[depth]
				if cap(nf.regs) >= cvc.numRegs {
					nf.regs = nf.regs[:cvc.numRegs]
				} else {
					nf.regs = make([]rval, cvc.numRegs)
				}
				nf.fn, nf.vc, nf.ip, nf.dst = callee, cvc, 0, in.a
				for i := range callee.Params {
					nf.regs[callee.Params[i].Slot] = regs[int(in.b)+i]
				}
				continue frames

			default:
				wi.fail(fmt.Errorf("oclc: unknown opcode %d", in.op))
				return
			}
		}
	}
}

// vmScheduler owns the per-launch execution state for the VM engine. All
// scratch — work-item records, the kernel-frame register arena, pooled
// call frames — is allocated once per Launch and reused across every
// work-group; the profile-visible cost of the naive version was GC
// write-barrier traffic from re-allocating pointer-bearing []rval files
// per group.
type vmScheduler struct {
	p     *Program
	fn    *Function
	vc    *vmCode
	args  []Arg
	wis   []vmWI
	arena []rval // kernel-frame SoA register file, n × numRegs

	// Lockstep-vectorized execution state (vmvec.go). Deeper call frames
	// and the lane bookkeeping are pooled here across launches like
	// everything else.
	width      int
	lanes      []int  // active lanes, ascending
	laneActive []bool // lane liveness, indexed by linear local id
	segLanes   []int  // lanes live at the current vector segment's start
	diedInSeg  []int  // lanes that failed during the current segment
	lanesDirty bool
	vframes    []vecFrame
	argBuf     []rval     // per-lane builtin argument gather scratch
	ctrs       []Counters // borrowed per-group counters (Launch scratch)
	laneErrs   []error    // borrowed per-group errors (Launch scratch)
	groupDiv   bool

	// segCtr batches the counter increments of the current lockstep
	// segment. In lockstep every active lane receives identical increments
	// per instruction, so they accumulate once per instruction here and
	// flush into a lane's ctrs entry exactly when the lane leaves the
	// segment: at death (laneFail), at a scatter, and when the group
	// finishes (runGroup). Per-lane divergence inside an instruction —
	// a lane dying before the instruction's increments apply — is handled
	// by ordering the segCtr bump against the laneFail calls to match the
	// scalar frames' per-item increment/fail order.
	segCtr Counters

	// arenaVC/arenaW identify the (code, width) whose SoA column layout
	// the pooled arena currently holds. Registers not yet written in a
	// launch keep whatever the previous launch left; under a different
	// layout that junk is kind-divergent across a register's lanes —
	// harmless for execution (registers are written before read) but
	// fatal for tryGather, whose per-register kind-agreement check cannot
	// tell live state from junk. newVMScheduler clears the arena once on
	// every layout change so junk is a uniform KVoid.
	arenaVC *vmCode
	arenaW  int

	vecDispatches int64 // group-level instruction dispatches (metrics)
	vecLaneExecs  int64 // per-lane instructions retired in vector mode
}

// vmSchedPool recycles schedulers across launches: the tuning loop
// launches the same kernel thousands of times, and the register arena was
// the dominant allocation per evaluation. Pool entries keep their pooled
// call frames too, so steady-state launches allocate nothing per group.
var vmSchedPool sync.Pool

func newVMScheduler(p *Program, fn *Function, vc *vmCode, args []Arg, n int) *vmScheduler {
	regs := n * vc.numRegs
	if v := vmSchedPool.Get(); v != nil {
		s := v.(*vmScheduler)
		if cap(s.wis) >= n && cap(s.arena) >= regs {
			s.p, s.fn, s.vc, s.args = p, fn, vc, args
			s.wis = s.wis[:n]
			s.arena = s.arena[:regs]
			if s.arenaVC != vc || s.arenaW != n {
				clear(s.arena)
				s.arenaVC, s.arenaW = vc, n
			}
			return s
		}
	}
	return &vmScheduler{
		p: p, fn: fn, vc: vc, args: args,
		wis:     make([]vmWI, n),
		arena:   make([]rval, regs),
		arenaVC: vc, arenaW: n,
	}
}

// release returns the scheduler to the pool. The caller must not use it
// afterwards; buffer references in the arena are dropped lazily (the pool
// is emptied by the next GC cycle). Locally accumulated vector metrics
// are published here, once per launch.
func (s *vmScheduler) release() {
	if s.vecDispatches > 0 {
		mVecDispatches.Add(uint64(s.vecDispatches))
		mVecInstructions.Add(uint64(s.vecLaneExecs))
		s.vecDispatches, s.vecLaneExecs = 0, 0
	}
	s.p, s.fn, s.vc, s.args = nil, nil, nil, nil
	s.ctrs, s.laneErrs = nil, nil
	vmSchedPool.Put(s)
}

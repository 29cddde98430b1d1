package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"dejavuzz/internal/gen"
	"dejavuzz/internal/mem"
	"dejavuzz/internal/swapmem"
	"dejavuzz/internal/uarch"
)

// dutImage is one DUT slot's state at a cycle boundary: the core, the
// address space and the swap runtime.
type dutImage struct {
	core  uarch.Image
	space *mem.Space
	rt    swapmem.RuntimeImage
}

func (in *instance) save(img *dutImage) {
	in.core.Save(&img.core)
	img.space = in.space.Clone()
	in.rt.Save(&img.rt)
}

// restore puts img into the slot, which keeps its own space, core and
// runtime allocations and bindings.
func (in *instance) restore(img *dutImage, sched *swapmem.Schedule) {
	in.space.Restore(img.space)
	in.core.Restore(&img.core)
	in.rt.Rebind(in.core, in.space, sched)
	in.rt.Restore(&img.rt)
}

// dutObservables is everything an analysis can read off a finished slot.
type dutObservables struct {
	Cycle, TrapCount    int
	Halted              bool
	Committed           uint64
	Insts               []uarch.InstRecord
	Squashes            []uarch.SquashEvent
	TaintLog            []uarch.TaintSample
	TaintSums           []int
	Census              []uarch.ModuleTaint
	Sinks               []uarch.Sink
	BugWitness          [uarch.NumWitnesses]int
	Regs                [32]uint64
	Traps, ExcTraps     int
	LoadCycles          []int
	Bytes, Taint, Perms []string
}

// observeSlot reads a slot's observables into copies that later runs on
// the slot cannot change.
func observeSlot(in *instance) dutObservables {
	c, rt := in.core, in.rt
	o := dutObservables{
		Cycle: c.Cycle, TrapCount: c.TrapCount, Halted: c.Halted, Committed: c.Committed,
		Insts:      slices.Clone(c.Trace.Insts),
		Squashes:   slices.Clone(c.Trace.Squashes),
		TaintLog:   slices.Clone(c.Trace.TaintLog),
		TaintSums:  slices.Clone(c.Trace.TaintSumByCycle),
		Census:     c.Census(),
		Sinks:      c.Sinks(),
		BugWitness: c.BugWitness,
		Traps:      rt.Traps, ExcTraps: rt.ExcTraps,
		LoadCycles: slices.Clone(rt.LoadCycles),
	}
	for r := range o.Regs {
		o.Regs[r], _ = c.ArchReg(r)
	}
	o.Bytes, o.Taint, o.Perms = dumpSpace(in.space)
	return o
}

func dumpSpace(sp *mem.Space) (bytes, taint, perms []string) {
	for _, r := range sp.Regions() {
		bytes = append(bytes, fmt.Sprintf("%x", sp.ReadRaw(r.Base, int(r.Size))))
		taint = append(taint, fmt.Sprintf("%x", sp.TaintRaw(r.Base, int(r.Size))))
		perms = append(perms, fmt.Sprintf("%s=%d", r.Name, r.Perm))
	}
	return bytes, taint, perms
}

// sameFields fails on the first field of two structs that differs.
func sameFields(t *testing.T, what string, want, got any) {
	t.Helper()
	wv, gv := reflect.ValueOf(want), reflect.ValueOf(got)
	for i := 0; i < wv.NumField(); i++ {
		if !reflect.DeepEqual(wv.Field(i).Interface(), gv.Field(i).Interface()) {
			t.Fatalf("%s: %s differs", what, wv.Type().Field(i).Name)
		}
	}
}

// checkImage compares a slot's full state against an image of the expected
// state, field by field: the core image, the runtime image and the space's
// bytes, taint and permissions.
func checkImage(t *testing.T, what string, in *instance, want *dutImage) {
	t.Helper()
	var got dutImage
	in.save(&got)
	if !reflect.DeepEqual(want.core, got.core) {
		t.Fatalf("%s: core state differs", what)
	}
	if !reflect.DeepEqual(want.rt, got.rt) {
		t.Fatalf("%s: runtime state differs", what)
	}
	wb, wt, wp := dumpSpace(want.space)
	gb, gt, gp := dumpSpace(got.space)
	if !reflect.DeepEqual(wb, gb) || !reflect.DeepEqual(wt, gt) || !reflect.DeepEqual(wp, gp) {
		t.Fatalf("%s: address space differs", what)
	}
}

// restoreStimulus builds a completed (secret-accessing) stimulus whose
// window triggers on kind, and a plain one to pollute slots with.
func restoreStimulus(t *testing.T, kind uarch.CoreKind) (sched, other *swapmem.Schedule) {
	t.Helper()
	f := NewFuzzer(DefaultOptions(kind))
	s := f.seqShard()
	for i := 0; i < 20; i++ {
		p1, err := s.Phase1(f.gen.SeedFor(kind, gen.TrigBranchMispred, gen.VariantDerived))
		if err != nil || !p1.Triggered {
			continue
		}
		other = p1.Stimulus.BuildScheduleInto(&swapmem.Schedule{}, nil)
		var done gen.Stimulus
		if err := s.gen.CompleteWindowInto(&done, p1.Stimulus); err != nil {
			t.Fatal(err)
		}
		return done.BuildScheduleInto(&swapmem.Schedule{}, p1.Keep), other
	}
	t.Fatal("no triggered stimulus")
	return nil, nil
}

// TestMidRunRestore saves a DUT mid-run at a cycle boundary, restores the
// image into another, previously used context, and checks the run finishes
// byte-identical to the uninterrupted one — the property prefix snapshots
// rely on. It covers a single CellIFT boom run and a diffIFT xiangshan pair.
// Each image is restored twice, and after each restore the slot's full
// state must equal a run stopped at the same cycle: an image that aliased
// the slot it was saved from or restored into would have changed by then.
func TestMidRunRestore(t *testing.T) {
	secret := DefaultSecret
	t.Run("boom-single", func(t *testing.T) {
		cfg := uarch.BOOMConfig()
		sched, other := restoreStimulus(t, uarch.KindBOOM)
		checkMidRunRestore(t, 1, sched, other,
			func(ins []*instance, s *swapmem.Schedule) {
				ins[0].prepare(false, secret, cfg, uarch.IFTCellIFT, s, true)
				ins[0].rt.Start()
			},
			func(ins []*instance, cycles int) { ins[0].core.Run(cycles) })
	})
	t.Run("xiangshan-diffIFT-pair", func(t *testing.T) {
		cfg := uarch.XiangShanConfig()
		sched, other := restoreStimulus(t, uarch.KindXiangShan)
		checkMidRunRestore(t, 2, sched, other,
			func(ins []*instance, s *swapmem.Schedule) {
				ins[0].prepare(false, secret, cfg, uarch.IFTDiff, s, true)
				ins[1].prepare(false, swapmem.FlipSecret(secret), cfg, uarch.IFTDiff, s, false)
				ins[0].rt.Start()
				ins[1].rt.Start()
			},
			func(ins []*instance, cycles int) { uarch.NewPair(ins[0].core, ins[1].core).Run(cycles) })
	})
}

// checkMidRunRestore runs the restore property over n coupled slots that
// start and run advances by a cycle count.
func checkMidRunRestore(t *testing.T, n int, sched, other *swapmem.Schedule,
	start func([]*instance, *swapmem.Schedule), run func([]*instance, int)) {
	const budget = DefaultMaxCycles
	slots := func() []*instance {
		ins := make([]*instance, n)
		for i := range ins {
			ins[i] = &instance{}
		}
		return ins
	}
	save := func(ins []*instance) []*dutImage {
		imgs := make([]*dutImage, n)
		for i, in := range ins {
			imgs[i] = &dutImage{}
			in.save(imgs[i])
		}
		return imgs
	}
	check := func(what string, ins []*instance, obs []dutObservables, imgs []*dutImage) {
		t.Helper()
		for i, in := range ins {
			if obs != nil {
				sameFields(t, fmt.Sprintf("%s, slot %d", what, i), obs[i], observeSlot(in))
			}
			checkImage(t, fmt.Sprintf("%s, slot %d", what, i), in, imgs[i])
		}
	}

	ref := slots()
	start(ref, sched)
	run(ref, budget)
	var want []dutObservables
	for _, in := range ref {
		want = append(want, observeSlot(in))
	}
	if !want[0].Halted || len(want[0].LoadCycles) < 2 || len(want[0].TaintLog) == 0 {
		t.Fatalf("reference run: halted=%v, %d packets, %d taint samples; want a finished, tainted multi-packet run",
			want[0].Halted, len(want[0].LoadCycles), len(want[0].TaintLog))
	}
	final := save(ref)

	for _, k := range []int{want[0].Cycle / 4, want[0].Cycle / 2} {
		atK := slots()
		start(atK, sched)
		run(atK, k)
		wantAtK := save(atK)

		src := slots()
		start(src, sched)
		run(src, k)
		imgs := save(src)
		run(src, budget-k)
		check(fmt.Sprintf("saved slots after cycle %d", k), src, want, final)

		dst := slots()
		start(dst, other) // the target slots ran another schedule first
		run(dst, budget)
		for round := 0; round < 2; round++ {
			for i, in := range dst {
				in.restore(imgs[i], sched)
			}
			check(fmt.Sprintf("restored at cycle %d, round %d", k, round), dst, nil, wantAtK)
			run(dst, budget-k)
			check(fmt.Sprintf("restored at cycle %d, round %d, finished", k, round), dst, want, final)
		}
	}
}

// TestTraceIndexDense pins what lets the trace index records by sequence
// number: every run numbers its instructions from 0 and enqueues each
// number once, in order, so Insts[i].Seq == i, and commits and squashes
// land on their own records: when a run halts, every record it enqueued
// has either committed or been squashed. It holds across packet swaps, in
// all three IFT modes, on a context that ran another schedule first, and
// after a mid-run restore into such a context.
func TestTraceIndexDense(t *testing.T) {
	dense := func(t *testing.T, what string, c *uarch.Core, finished bool) {
		t.Helper()
		tr := c.Trace
		if c.Halted != finished {
			t.Fatalf("%s: halted = %v, want %v", what, c.Halted, finished)
		}
		if len(tr.Insts) == 0 {
			t.Fatalf("%s: empty trace", what)
		}
		for i := range tr.Insts {
			r := &tr.Insts[i]
			if r.Seq != uint64(i) {
				t.Fatalf("%s: Insts[%d] holds seq %d", what, i, r.Seq)
			}
			if finished && (r.CommitCycle >= 0) == (r.SquashCycle >= 0) {
				t.Fatalf("%s: seq %d of a halted run has commit cycle %d and squash cycle %d, want exactly one",
					what, i, r.CommitCycle, r.SquashCycle)
			}
		}
	}
	for _, kind := range []uarch.CoreKind{uarch.KindBOOM, uarch.KindXiangShan} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := uarch.ConfigFor(kind)
			sched, other := restoreStimulus(t, kind)
			x := NewExecContext()
			for _, s := range []*swapmem.Schedule{other, sched} {
				for _, mode := range []uarch.IFTMode{uarch.IFTOff, uarch.IFTCellIFT} {
					run := x.RunSingle(s, RunOpts{Cfg: cfg, Mode: mode, TaintTrace: mode != uarch.IFTOff})
					if len(run.RT.LoadCycles) < 2 {
						t.Fatalf("%v run loaded %d packets, want a swap", mode, len(run.RT.LoadCycles))
					}
					dense(t, mode.String(), run.Core, true)
				}
				run := x.RunDiff(s, RunOpts{Cfg: cfg, TaintTrace: true})
				dense(t, "diffIFT A", run.Pair.A, true)
				dense(t, "diffIFT B", run.Pair.B, true)
			}

			start := func(in *instance, s *swapmem.Schedule) {
				in.prepare(false, DefaultSecret, cfg, uarch.IFTCellIFT, s, true)
				in.rt.Start()
			}
			src, dst := &instance{}, &instance{}
			start(src, sched)
			k := src.core.Run(DefaultMaxCycles) / 2
			total := len(src.core.Trace.Insts)
			start(src, sched)
			src.core.Run(k)
			var img dutImage
			src.save(&img)
			start(dst, other)
			dst.core.Run(DefaultMaxCycles)
			dst.restore(&img, sched)
			dense(t, "restored", dst.core, false)
			dst.core.Run(DefaultMaxCycles - k)
			dense(t, "restored and finished", dst.core, true)
			if got := len(dst.core.Trace.Insts); got != total {
				t.Fatalf("restored run enqueued %d instructions, uninterrupted %d", got, total)
			}
		})
	}
}

package uarch

import (
	"reflect"
	"testing"

	"dejavuzz/internal/mem"
)

// storage records the backing array of every non-empty slice and every map
// reachable from v, keyed by address. Bindings (the address space, the
// cached pristine image, functions) are not state and are not followed; RAS
// snapshots are immutable and shared by design.
func storage(v reflect.Value, path string, out map[uintptr]string, seen map[uintptr]bool) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || seen[v.Pointer()] {
			return
		}
		switch v.Type() {
		case reflect.TypeOf((*mem.Space)(nil)), reflect.TypeOf((*Image)(nil)):
			return
		}
		seen[v.Pointer()] = true
		storage(v.Elem(), path, out, seen)
	case reflect.Struct:
		if v.Type() == reflect.TypeOf(RASSnapshot{}) {
			return
		}
		for i := 0; i < v.NumField(); i++ {
			storage(v.Field(i), path+"."+v.Type().Field(i).Name, out, seen)
		}
	case reflect.Slice:
		if v.Cap() > 0 {
			out[v.Pointer()] = path
		}
		for i := 0; i < v.Len(); i++ {
			storage(v.Index(i), path, out, seen)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			storage(v.Index(i), path, out, seen)
		}
	case reflect.Map:
		if !v.IsNil() {
			out[v.Pointer()] = path
		}
	}
}

func storageOf(x any) map[uintptr]string {
	out := map[uintptr]string{}
	storage(reflect.ValueOf(x), "", out, map[uintptr]bool{})
	return out
}

// disjoint fails when two states share a slice backing array or a map.
func disjoint(t *testing.T, what string, a, b any) {
	t.Helper()
	sb := storageOf(b)
	for p, path := range storageOf(a) {
		if other, ok := sb[p]; ok {
			t.Fatalf("%s: %s shares storage with %s", what, path, other)
		}
	}
}

// TestImageSharesNoStorage pins that Save, Restore and Reset copy state:
// a core never shares an array or a map with an image, its own pristine
// image included. An alias would let one run rewrite another's state, and
// since construction is itself a restore of the pristine image, the
// fresh-construction oracles cannot see it.
func TestImageSharesNoStorage(t *testing.T) {
	for _, kind := range []CoreKind{KindBOOM, KindXiangShan} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := ConfigFor(kind)
			sp := testSpace(t, mem.PermRead, mem.FaultAccess)
			sp.SetTaint(0x2000, 8, true)
			p := resetProbeProgram(t)
			loadProgram(sp, p)
			c := NewCore(cfg, sp, IFTCellIFT)
			c.TaintTraceOn = true
			c.TrapHook = HaltingHook()
			c.Restart(p.Base)
			c.Run(60) // mid-run: every structure holds state

			disjoint(t, "core vs pristine image", c, pristineImage(cfg))
			var img Image
			c.Save(&img)
			disjoint(t, "core vs saved image", c, &img)
			c2 := NewCore(cfg, testSpace(t, mem.PermRead, mem.FaultAccess), IFTOff)
			c2.Restore(&img)
			disjoint(t, "restored core vs image", c2, &img)
			disjoint(t, "restored core vs source core", c2, c)
			if !reflect.DeepEqual(observe(c), observe(c2)) {
				t.Fatal("restored core observes differently from its source")
			}
		})
	}
}

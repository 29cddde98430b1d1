package core

import (
	"reflect"
	"strings"
	"testing"

	"dejavuzz/internal/uarch"
)

// mutateField returns a copy of base with field i changed to a different
// value, using the field's kind to pick a perturbation. It fails the test
// for kinds it does not know how to mutate — a new field of a new kind must
// extend this switch, so no new field goes unclassified.
func mutateField(t *testing.T, base Options, i int) Options {
	t.Helper()
	mut := base
	mv := reflect.ValueOf(&mut).Elem().Field(i)
	switch mv.Kind() {
	case reflect.Bool:
		mv.SetBool(!mv.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		mv.SetInt(mv.Int() + 1)
	case reflect.String:
		mv.SetString(mv.String() + "-mutated")
	case reflect.Slice:
		if mv.Type().Elem().Kind() == reflect.String {
			mv.Set(reflect.ValueOf([]string{"zzz-synthetic-family"}))
		} else {
			// Struct-element slices (warm seeds, frontier prior): a single
			// zero-valued element differs from the normalized nil baseline.
			mv.Set(reflect.MakeSlice(mv.Type(), 1, 1))
		}
	case reflect.Func:
		mv.Set(reflect.MakeFunc(mv.Type(), func(args []reflect.Value) []reflect.Value {
			return nil
		}))
	default:
		t.Fatalf("Options.%s: unhandled kind %s — extend mutateField alongside the new field",
			reflect.TypeOf(base).Field(i).Name, mv.Kind())
	}
	return mut
}

// TestOptionsFieldClassification cross-checks the two places a field's
// determinism classification lives — DiffFrom's enumeration (which
// EquivalentTo is defined by) and the optionsDeterminismIrrelevant
// allowlist — by mutating every Options field and observing the runtime
// behaviour:
//
//   - an allowlisted field's mutation must be invisible (EquivalentTo true,
//     DiffFrom empty), or the allowlist is lying;
//   - every other field's mutation must break equivalence AND be named by
//     DiffFrom's enumeration. The "does not enumerate" check guards against
//     a catch-all message standing in for a named field;
//   - every allowlist key must name an Options field and carry a
//     justification.
func TestOptionsFieldClassification(t *testing.T) {
	base := DefaultOptions(uarch.KindBOOM).Normalized()
	rt := reflect.TypeOf(base)
	for name, why := range optionsDeterminismIrrelevant {
		if _, ok := rt.FieldByName(name); !ok {
			t.Errorf("optionsDeterminismIrrelevant lists %q, which is not a field of Options", name)
		}
		if strings.TrimSpace(why) == "" {
			t.Errorf("optionsDeterminismIrrelevant entry %q has no justification", name)
		}
	}
	for i := 0; i < rt.NumField(); i++ {
		name := rt.Field(i).Name
		mut := mutateField(t, base, i)
		diffs := base.DiffFrom(mut)
		equiv := base.EquivalentTo(mut)
		_, irrelevant := optionsDeterminismIrrelevant[name]
		if irrelevant {
			if !equiv {
				t.Errorf("Options.%s is allowlisted as determinism-irrelevant but its mutation breaks EquivalentTo", name)
			}
			if len(diffs) != 0 {
				t.Errorf("Options.%s is allowlisted as determinism-irrelevant but DiffFrom reports %q", name, diffs)
			}
			continue
		}
		if equiv {
			t.Errorf("Options.%s is determinism-relevant but its mutation leaves the options EquivalentTo", name)
		}
		if len(diffs) == 0 {
			t.Errorf("Options.%s is determinism-relevant but DiffFrom reports no difference", name)
			continue
		}
		for _, d := range diffs {
			if strings.Contains(d, "does not enumerate") {
				t.Errorf("Options.%s surfaced through DiffFrom's fallback (%q); the enumeration must name it", name, d)
			}
		}
	}
}

// TestOptionsDiffOfIdenticalIsEmpty: DiffFrom of equal options is empty, so
// options are EquivalentTo themselves.
func TestOptionsDiffOfIdenticalIsEmpty(t *testing.T) {
	base := DefaultOptions(uarch.KindBOOM)
	if diffs := base.DiffFrom(base); len(diffs) != 0 {
		t.Fatalf("DiffFrom of identical options = %q, want empty", diffs)
	}
	if !base.EquivalentTo(base) {
		t.Fatal("identical options are not EquivalentTo themselves")
	}
}

// TestOptionsDiffComparesRaw: DiffFrom compares raw normalized values, not
// their renderings. A cold start (no snapshot ID) and a snapshot whose ID
// is literally "cold" are different campaigns, and the message must tell
// the two values apart.
func TestOptionsDiffComparesRaw(t *testing.T) {
	cold := DefaultOptions(uarch.KindBOOM)
	named := cold
	named.CorpusSnapshot = "cold"
	if cold.EquivalentTo(named) {
		t.Fatal(`CorpusSnapshot "" and "cold" compare EquivalentTo`)
	}
	diffs := cold.DiffFrom(named)
	if len(diffs) != 1 || !strings.HasPrefix(diffs[0], "corpus_snapshot: ") {
		t.Fatalf("DiffFrom = %q, want one corpus_snapshot entry", diffs)
	}
	have, want, ok := strings.Cut(strings.TrimPrefix(diffs[0], "corpus_snapshot: "), " vs ")
	if !ok || have == want {
		t.Fatalf("DiffFrom renders the two snapshots alike: %q", diffs[0])
	}
}

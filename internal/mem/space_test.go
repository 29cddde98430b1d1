package mem

import (
	"bytes"
	"testing"
	"testing/quick"
)

func testSpace(t *testing.T) *Space {
	t.Helper()
	s := NewSpace()
	s.MustAddRegion(Region{Name: "ram", Base: 0x1000, Size: 0x1000, Perm: PermRead | PermWrite | PermExec})
	s.MustAddRegion(Region{Name: "rom", Base: 0x3000, Size: 0x800, Perm: PermRead | PermExec})
	s.MustAddRegion(Region{Name: "guard", Base: 0x4000, Size: 0x800, Perm: 0, Fault: FaultPage})
	return s
}

func TestRegionLookup(t *testing.T) {
	s := testSpace(t)
	if r := s.Region(0x1000); r == nil || r.Name != "ram" {
		t.Fatalf("Region(0x1000) = %v", r)
	}
	if r := s.Region(0x1fff); r == nil || r.Name != "ram" {
		t.Fatalf("Region(0x1fff) = %v", r)
	}
	if r := s.Region(0x2000); r != nil {
		t.Fatalf("Region(0x2000) = %v, want nil", r)
	}
	if r := s.RegionByName("rom"); r == nil || r.Base != 0x3000 {
		t.Fatalf("RegionByName(rom) = %v", r)
	}
	if got := len(s.Regions()); got != 3 {
		t.Fatalf("Regions() len = %d", got)
	}
}

func TestOverlapRejected(t *testing.T) {
	s := testSpace(t)
	if _, err := s.AddRegion(Region{Name: "bad", Base: 0x1800, Size: 0x1000}); err == nil {
		t.Fatal("overlapping region accepted")
	}
	if _, err := s.AddRegion(Region{Name: "empty", Base: 0x9000, Size: 0}); err == nil {
		t.Fatal("zero-size region accepted")
	}
}

func TestPermissionChecks(t *testing.T) {
	s := testSpace(t)
	if err := s.Check(0x1000, 8, AccessStore); err != nil {
		t.Fatalf("store to ram: %v", err)
	}
	err := s.Check(0x3000, 8, AccessStore)
	f, ok := err.(*Fault)
	if !ok || f.Page {
		t.Fatalf("store to rom: %v (want access fault)", err)
	}
	err = s.Check(0x4000, 8, AccessLoad)
	f, ok = err.(*Fault)
	if !ok || !f.Page {
		t.Fatalf("load from guard: %v (want page fault)", err)
	}
	if err := s.Check(0x8000, 1, AccessLoad); err == nil {
		t.Fatal("unmapped read allowed")
	}
	// Access straddling a region boundary faults.
	if err := s.Check(0x1ffc, 8, AccessLoad); err == nil {
		t.Fatal("straddling read allowed")
	}
}

func TestSetPerm(t *testing.T) {
	s := testSpace(t)
	if err := s.SetPerm("ram", 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Check(0x1000, 8, AccessLoad); err == nil {
		t.Fatal("read allowed after revocation")
	}
	if err := s.SetPerm("nope", 0); err == nil {
		t.Fatal("SetPerm on unknown region succeeded")
	}
}

func TestReadWrite64(t *testing.T) {
	s := testSpace(t)
	s.Write64(0x1100, 0xdeadbeefcafef00d, 0x00ff00ff00ff00ff)
	v, tt := s.Read64(0x1100)
	if v != 0xdeadbeefcafef00d {
		t.Fatalf("value %#x", v)
	}
	if tt != 0x00ff00ff00ff00ff {
		t.Fatalf("taint %#x", tt)
	}
}

func TestCheckedReadReturnsDataOnFault(t *testing.T) {
	// The transient-forwarding model depends on faulting reads still
	// exposing the underlying data.
	s := testSpace(t)
	s.Write64(0x1100, 42, 0)
	s.SetPerm("ram", PermWrite)
	v, _, err := s.Read(0x1100, 8, AccessLoad)
	if err == nil {
		t.Fatal("expected fault")
	}
	if v != 42 {
		t.Fatalf("faulting read hid the data: %d", v)
	}
}

func TestSetTaintAndTaintRaw(t *testing.T) {
	s := testSpace(t)
	s.SetTaint(0x1200, 4, true)
	tr := s.TaintRaw(0x11fe, 8)
	want := []byte{0, 0, 0xff, 0xff, 0xff, 0xff, 0, 0}
	for i := range want {
		if tr[i] != want[i] {
			t.Fatalf("taint[%d] = %#x, want %#x (%v)", i, tr[i], want[i], tr)
		}
	}
	s.SetTaint(0x1200, 4, false)
	if tr := s.TaintRaw(0x1200, 4); tr[0] != 0 {
		t.Fatal("taint not cleared")
	}
}

func TestClone(t *testing.T) {
	s := testSpace(t)
	s.Write64(0x1100, 7, ^uint64(0))
	c := s.Clone()
	c.Write64(0x1100, 9, 0)
	if v, _ := s.Read64(0x1100); v != 7 {
		t.Fatal("clone aliases the original")
	}
	if v, tt := c.Read64(0x1100); v != 9 || tt != 0 {
		t.Fatalf("clone state wrong: %d/%#x", v, tt)
	}
	if err := c.SetPerm("ram", 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Check(0x1000, 1, AccessLoad); err != nil {
		t.Fatal("clone permission change leaked to original")
	}
}

// Property: Write64 then Read64 round-trips values and taints at any mapped,
// aligned address.
func TestReadWriteProperty(t *testing.T) {
	s := testSpace(t)
	f := func(off uint16, v, taint uint64) bool {
		addr := 0x1000 + uint64(off)%(0x1000-8)
		addr &^= 7
		s.Write64(addr, v, taint)
		gv, gt := s.Read64(addr)
		return gv == v && gt == taint
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: unchecked byte reads/writes agree with 64-bit accessors.
func TestByteWordConsistency(t *testing.T) {
	s := testSpace(t)
	f := func(v uint64) bool {
		s.Write64(0x1500, v, 0)
		b := s.ReadRaw(0x1500, 8)
		var got uint64
		for i := 7; i >= 0; i-- {
			got = got<<8 | uint64(b[i])
		}
		return got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFaultError(t *testing.T) {
	f := &Fault{Addr: 0x123, Kind: AccessStore, Page: true}
	if f.Error() != "mem: store page fault at 0x123" {
		t.Fatalf("Error() = %q", f.Error())
	}
	if AccessFetch.String() != "fetch" || AccessLoad.String() != "load" {
		t.Fatal("AccessKind strings wrong")
	}
}

// TestRegionLookupUnalignedRegions checks lookups on pages the page table
// cannot resolve: regions that start or end inside a page, and gaps.
func TestRegionLookupUnalignedRegions(t *testing.T) {
	s := NewSpace()
	s.MustAddRegion(Region{Name: "a", Base: 0x1010, Size: 0x30})
	s.MustAddRegion(Region{Name: "b", Base: 0x1040, Size: 0x210})
	s.MustAddRegion(Region{Name: "c", Base: 0x1400, Size: 0x100})
	for addr := uint64(0xf00); addr < 0x1600; addr++ {
		var want *Region
		for _, r := range s.Regions() {
			if r.Contains(addr) {
				want = r
			}
		}
		if got := s.Region(addr); got != want {
			t.Fatalf("Region(%#x) = %v, want %v", addr, got, want)
		}
	}
	if _, err := s.AddRegion(Region{Name: "far", Base: 1 << 28, Size: 0x100}); err == nil {
		t.Fatal("region beyond the lookup span accepted")
	}
}

// TestRestoreFromImage covers both restore paths: a full copy from an image
// the space was not restored from, and the dirty-page copy from the same
// image again. Neither may write the image.
func TestRestoreFromImage(t *testing.T) {
	img := testSpace(t)
	img.WriteRaw(0x1000, []byte{1, 2, 3})
	img.SetTaint(0x3010, 4, true)
	if err := img.SetPerm("rom", PermRead); err != nil {
		t.Fatal(err)
	}
	want := img.Clone()
	same := func(s *Space, what string) {
		t.Helper()
		for _, r := range want.Regions() {
			if !bytes.Equal(s.ReadRaw(r.Base, int(r.Size)), want.ReadRaw(r.Base, int(r.Size))) ||
				!bytes.Equal(s.TaintRaw(r.Base, int(r.Size)), want.TaintRaw(r.Base, int(r.Size))) ||
				s.RegionByName(r.Name).Perm != r.Perm {
				t.Fatalf("%s: region %q differs from the image", what, r.Name)
			}
		}
	}
	s := testSpace(t)
	s.WriteRaw(0x1ff0, bytes.Repeat([]byte{9}, 32)) // straddles the ram end
	s.Restore(img)
	same(s, "full restore")
	if s.DirtyBytes() != 0 {
		t.Fatalf("restored space has %d dirty bytes", s.DirtyBytes())
	}
	s.Write64(0x1100, 7, 7)
	s.SetTaint(0x17fe, 4, true) // spans two pages
	if got := s.DirtyBytes(); got != 3*PageSize {
		t.Fatalf("dirty bytes = %d, want %d", got, 3*PageSize)
	}
	s.Restore(img)
	same(s, "dirty restore")
	same(img, "image after restores")
	s.Write64(0x1100, 7, 7)
	s.Reset()
	if v, tt := s.Read64(0x1000); v != 0 || tt != 0 {
		t.Fatalf("Reset left %#x/%#x", v, tt)
	}
}

// TestDiffLinesAcrossImages: two spaces restored from different images may
// differ on pages clean in both, so DiffLines must compare every line.
func TestDiffLinesAcrossImages(t *testing.T) {
	img := testSpace(t)
	img.WriteRaw(0x1040, []byte{1, 2, 3})
	a, b := testSpace(t), testSpace(t)
	a.Restore(img)
	var got []int
	DiffLines(a, b, 0x1000, 64, func(off, n int) { got = append(got, off, n) })
	if len(got) != 2 || got[0] != 0x40 || got[1] != 3 {
		t.Fatalf("DiffLines across images = %v, want [64 3]", got)
	}
	b.Restore(img)
	got = got[:0]
	DiffLines(a, b, 0x1000, 64, func(off, n int) { got = append(got, off, n) })
	if len(got) != 0 {
		t.Fatalf("DiffLines of two restores of one image = %v, want none", got)
	}
}

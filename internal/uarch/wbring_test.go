package uarch

import (
	"testing"

	"dejavuzz/internal/mem"
)

// TestLoadWBRingCoversLoadLatency pins the load write-back ring's size. For
// both configurations it must exceed the longest latency one load can book
// ahead, measured on the units themselves: both TLB levels missing, a
// dcache miss that waits out a busy MSHR, and then one cycle per load-queue
// entry queued for the write-back port. Within that bound no two live
// cycles share a slot, so the ring never has to grow.
func TestLoadWBRingCoversLoadLatency(t *testing.T) {
	for _, cfg := range []Config{BOOMConfig(), XiangShanConfig()} {
		c := NewCore(cfg, testSpace(t, mem.PermRead, mem.FaultAccess), IFTOff)
		line := uint64(cfg.DCache.LineBytes)
		for i := range cfg.DCache.MSHRs {
			c.DCache.Access(0x8000+uint64(i)*line, 0)
		}
		cache := c.DCache.Access(0x8000+uint64(cfg.DCache.MSHRs)*line, 0).Latency
		lat := 1 + c.DTLB.Lookup(0xc000) + cache + cfg.LDQEntries
		if cache != 2*cfg.DCache.MissLat {
			t.Errorf("%s: a miss behind busy MSHRs took %d cycles, want %d", cfg.Name, cache, 2*cfg.DCache.MissLat)
		}
		n := len(c.wbPorts)
		if n&(n-1) != 0 || lat >= n {
			t.Errorf("%s: write-back ring has %d slots, want a power of two above %d", cfg.Name, n, lat)
		}
	}
}

// TestLoadWBRingGrows books write-backs past the ring's end, as a chain of
// MSHR stalls can: the ring must grow and keep every booking, and a saved
// image must carry the grown ring.
func TestLoadWBRingGrows(t *testing.T) {
	c := NewCore(BOOMConfig(), testSpace(t, mem.PermRead, mem.FaultAccess), IFTOff)
	c.Cycle = 1000 // not a multiple of the ring's length
	n := len(c.wbPorts)
	want := map[int]int32{c.Cycle + 1: 1, c.Cycle + n - 1: 2, c.Cycle + 3*n: 3}
	for _, k := range []int{c.Cycle + 1, c.Cycle + n - 1, c.Cycle + 3*n} {
		*c.bookLoadWB(k) = want[k]
	}
	if len(c.wbPorts) != 4*n {
		t.Fatalf("ring has %d slots after booking %d cycles ahead, want %d", len(c.wbPorts), 3*n, 4*n)
	}
	check := func(what string, c *Core) {
		t.Helper()
		for k := c.Cycle; k < c.Cycle+len(c.wbPorts); k++ {
			if got := *c.bookLoadWB(k); got != want[k] {
				t.Fatalf("%s: cycle %d holds %d bookings, want %d", what, k, got, want[k])
			}
		}
	}
	check("grown", c)
	var img Image
	c.Save(&img)
	c2 := NewCore(BOOMConfig(), testSpace(t, mem.PermRead, mem.FaultAccess), IFTOff)
	c2.Restore(&img)
	check("restored", c2)
}

// TestLoadWBRingMatchesMapModel books load write-backs cycle after cycle,
// as the load unit does, and compares every completion cycle with a plain
// map from cycle to bookings: the ring frees each cycle's slot when the
// cycle ends, wraps many times, and grows when a booking reaches past it.
func TestLoadWBRingMatchesMapModel(t *testing.T) {
	for _, cfg := range []Config{BOOMConfig(), XiangShanConfig()} {
		c := NewCore(cfg, testSpace(t, mem.PermRead, mem.FaultAccess), IFTOff)
		booked := map[int]int{}
		x := uint64(0x2545f4914f6cdd1d)
		rnd := func(n int) int {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return int(x % uint64(n))
		}
		span := len(c.wbPorts) - 1
		for end := 20 * len(c.wbPorts); c.Cycle < end; {
			// Below one booking per port per cycle on average, so the
			// queue for the port stays short, as the load queue keeps it.
			for range rnd(cfg.LoadWBPorts + 1) {
				lat := 1 + rnd(span/4)
				if rnd(500) == 0 {
					lat = span + rnd(3*span) // an MSHR stall chain
				}
				e := &robEntry{doneAt: c.Cycle + lat}
				c.chargeLoadWB(e)
				want := c.Cycle + lat
				for booked[want] >= cfg.LoadWBPorts {
					want++
				}
				booked[want]++
				if e.doneAt != want {
					t.Fatalf("%s cycle %d: load booked for %d completes at %d, want %d",
						cfg.Name, c.Cycle, c.Cycle+lat, e.doneAt, want)
				}
			}
			c.afterCycle()
		}
	}
}

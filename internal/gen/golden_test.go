package gen

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"os"
	"strings"
	"testing"

	"dejavuzz/internal/scenario"
	"dejavuzz/internal/swapmem"
	"dejavuzz/internal/uarch"
)

// goldenPath holds one SHA-256 per (family, core, variant, generator seed):
// the packet images and window bounds every build call produces. The file
// pins stimulus construction byte for byte, so a change to how packets are
// assembled must leave every line unchanged.
const goldenPath = "testdata/packets.golden"

// goldenGenSeeds is how many fixed generator seeds each row covers.
const goldenGenSeeds = 16

// hashPacket folds every field of a packet the swap runtime and the
// training metrics read.
func hashPacket(h hash.Hash, p *swapmem.Packet) {
	if p == nil {
		h.Write([]byte("nil-packet\n"))
		return
	}
	fmt.Fprintf(h, "%s|%d|%#x|%d|%d|%#x|%d\n", p.Name, p.Kind, p.Entry, p.TrainInsts, p.PadInsts,
		p.Image.Base, len(p.Image.Words))
	var b [4]byte
	for _, w := range p.Image.Words {
		binary.LittleEndian.PutUint32(b[:], w)
		h.Write(b[:])
	}
}

// hashStimulus folds a stimulus' window bounds and every packet it carries.
func hashStimulus(h hash.Hash, tag string, st *Stimulus) {
	fmt.Fprintf(h, "%s %#x %#x %#x %d %d\n", tag, st.TriggerPC, st.WindowLo, st.WindowHi,
		len(st.TriggerTrains), len(st.WindowTrains))
	hashPacket(h, st.Transient)
	for _, p := range st.TriggerTrains {
		hashPacket(h, p)
	}
	for _, p := range st.WindowTrains {
		hashPacket(h, p)
	}
}

// goldenLines builds every golden input and renders one line per input.
// Each row reuses one generator and one set of stimulus buffers across its
// seeds, so scratch reuse between builds is covered too.
func goldenLines(t *testing.T) []string {
	var out []string
	for _, fam := range scenario.Names() {
		for _, kind := range []uarch.CoreKind{uarch.KindBOOM, uarch.KindXiangShan} {
			for _, v := range []Variant{VariantDerived, VariantRandom} {
				g := New(0)
				var st1, st2, st3 Stimulus
				for k := 1; k <= goldenGenSeeds; k++ {
					g.Reseed(int64(k))
					seed, err := g.SeedScenario(kind, fam)
					if err != nil {
						t.Fatal(err)
					}
					seed.Variant = v
					h := sha256.New()
					if err := g.BuildStimulusInto(&st1, seed); err != nil {
						fmt.Fprintf(h, "build error: %v\n", err)
					} else {
						hashStimulus(h, "phase1", &st1)
						if err := g.CompleteWindowInto(&st2, &st1); err != nil {
							fmt.Fprintf(h, "complete error: %v\n", err)
						} else {
							hashStimulus(h, "complete", &st2)
							if err := g.SanitizedInto(&st3, &st2); err != nil {
								fmt.Fprintf(h, "sanitize error: %v\n", err)
							} else {
								hashStimulus(h, "sanitized", &st3)
							}
						}
					}
					out = append(out, fmt.Sprintf("%s %s %s %d %x",
						fam, strings.ToLower(kind.String()), variantTag(v), k, h.Sum(nil)))
				}
			}
		}
	}
	return out
}

func variantTag(v Variant) string {
	if v == VariantRandom {
		return "random"
	}
	return "derived"
}

// TestGoldenPackets pins the three build calls' packets, byte for byte,
// for every registered family × {boom, xiangshan} × {derived, random
// training} × 16 generator seeds.
func TestGoldenPackets(t *testing.T) {
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	got := goldenLines(t)
	if len(got) != len(want) {
		t.Fatalf("%d golden inputs, file has %d lines", len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			bad++
			if bad <= 5 {
				t.Errorf("golden mismatch:\n  got  %s\n  want %s", got[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d golden inputs differ", bad, len(got))
	}
}

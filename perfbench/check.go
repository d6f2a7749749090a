package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// gate collects correctness problems. A run with any problem reports
// "correct": false; the timings it printed are still complete.
type gate struct {
	problems []string
}

func (g *gate) ok() bool { return len(g.problems) == 0 }

func (g *gate) failf(format string, args ...any) {
	g.problems = append(g.problems, fmt.Sprintf(format, args...))
}

// expectCount checks an exact simulated total against its pinned value.
func (g *gate) expectCount(what string, got, want uint64) {
	if got != want {
		g.failf("%s = %d, pinned %d", what, got, want)
	}
}

// expectBytes checks output bytes against a reference, naming the
// first byte that differs.
func (g *gate) expectBytes(what string, got, want []byte) {
	if bytes.Equal(got, want) {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	g.failf("%s differs from its reference at byte %d (%d bytes, want %d)", what, i, len(got), len(want))
}

// expectDigest checks output bytes against a pinned SHA-256.
func (g *gate) expectDigest(what string, got []byte, want string) {
	sum := sha256.Sum256(got)
	if d := hex.EncodeToString(sum[:]); d != want {
		g.failf("%s has SHA-256 %s, pinned %s", what, d, want)
	}
}

// Pinned simulated totals. The simulator is deterministic, so these
// hold on every host, for every seed and every pass; a change that
// moves one changed what is simulated, not how fast.
const (
	// paper-figs: all 389 cells of the paper's evaluation at paper scale.
	paperFigsCycles = 20389022
	// paper-figs: the 66 cells of figures 5 and 6 (11 kernels x 1-6
	// threads at the default configuration), read back from the runner.
	paperFigsThreadCommitted = 5502538
	// paper-figs: the rendered tables, in registry order.
	paperFigsTablesSHA256 = "5db154366552c88037a44078ec14ec5fa5d7a06abf2c84483508bc3cd7c053d9"

	// miss-heavy: the 64 runs (11 kernels x 1-6 threads, miss-heavy L1,
	// less the two in missHeavyWrong).
	missHeavyCycles    = 20001831
	missHeavyCommitted = 5504510
)

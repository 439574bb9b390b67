// Package bench regenerates every table and figure of the paper's
// evaluation (section 4): the video player event graph (Fig. 5) and its
// reduction (Fig. 6), the video player timing tables (Figs. 10-11), the
// SecComm push/pop table (Fig. 12), the X client table (Fig. 13), plus
// the section 1 overhead-share claim and the section 4.2 code-size note.
// Each Run* function measures both the original and the optimized
// program and prints a table in the paper's format; absolute numbers are
// hardware-dependent, the Opt/Orig ratios are the reproduction target.
package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"
)

// measure times n calls of f and returns the best mean per-call duration
// over several passes. Taking the minimum of interleavable passes makes
// the harness robust against machine-load drift, which would otherwise
// systematically bias whichever variant is measured later.
func measure(n int, f func()) time.Duration {
	warm := n / 10
	if warm < 1 {
		warm = 1
	}
	for i := 0; i < warm; i++ {
		f()
	}
	const passes = 5
	per := n / passes
	if per < 1 {
		per = 1
	}
	best := time.Duration(0)
	for p := 0; p < passes; p++ {
		runtime.GC()
		t0 := time.Now()
		for i := 0; i < per; i++ {
			f()
		}
		d := time.Since(t0) / time.Duration(per)
		if best == 0 || d < best {
			best = d
		}
	}
	return best
}

// measurePair measures two variants with alternating passes and returns
// the best per-call duration of each. Alternation cancels slow drift;
// minima cancel transient interference.
func measurePair(n int, fa, fb func()) (time.Duration, time.Duration) {
	warm := n / 10
	if warm < 1 {
		warm = 1
	}
	for i := 0; i < warm; i++ {
		fa()
		fb()
	}
	const passes = 5
	per := n / passes
	if per < 1 {
		per = 1
	}
	var bestA, bestB time.Duration
	for p := 0; p < passes; p++ {
		runtime.GC() // each side starts with a clean heap: neither pays
		t0 := time.Now()
		for i := 0; i < per; i++ {
			fa()
		}
		da := time.Since(t0) / time.Duration(per)
		runtime.GC() // ...the other's collection debt mid-measurement
		t0 = time.Now()
		for i := 0; i < per; i++ {
			fb()
		}
		db := time.Since(t0) / time.Duration(per)
		if bestA == 0 || da < bestA {
			bestA = da
		}
		if bestB == 0 || db < bestB {
			bestB = db
		}
	}
	return bestA, bestB
}

// us renders a duration as microseconds with two decimals.
func us(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d.Nanoseconds())/1e3)
}

// ratio renders opt/orig as a percentage, the paper's (Opt/Orig)x100 column.
func ratio(orig, opt time.Duration) string {
	if orig <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", pctOf(orig, opt))
}

// header prints a table title and rule.
func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n%s\n", title)
	for range title {
		fmt.Fprint(w, "-")
	}
	fmt.Fprintln(w)
}

// Hotpaths: find a program's hot functions and hot paths from a stored
// TWPP, and compare the access cost against the Sequitur (Larus)
// baseline — the workflow motivating the paper's Tables 4 and 5.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"twpp"
)

// An interpreter-like workload: a dispatch loop over opcode handlers
// with realistic skew (some handlers hot, some cold, each with a few
// distinct paths).
const src = `
func main() {
    var pc = 0;
    var acc = 0;
    while (pc < 2000) {
        var op = (pc * 7 + 3) % 10;
        if (op < 5) {
            acc = handleArith(op, acc);
        } else {
            if (op < 8) {
                acc = handleMem(op, acc);
            } else {
                acc = handleBranch(op, acc);
            }
        }
        pc = pc + 1;
    }
    print(acc);
}

func handleArith(op, acc) {
    var k = 0;
    while (k < 6) {
        if (op % 2 == 0) {
            acc = acc + op;
        } else {
            acc = acc - 1;
        }
        k = k + 1;
    }
    return acc;
}

func handleMem(op, acc) {
    var buf = alloc(8);
    buf[op % 8] = acc;
    var k = 0;
    while (k < 4) {
        acc = acc + buf[op % 8];
        k = k + 1;
    }
    return acc % 100000;
}

func handleBranch(op, acc) {
    if (acc % 3 == 0) {
        return acc / 2;
    }
    return acc + op;
}
`

func main() {
	prog, err := twpp.Compile(src)
	if err != nil {
		log.Fatal(err)
	}
	run, err := prog.Trace(nil)
	if err != nil {
		log.Fatal(err)
	}
	tw, stats := twpp.Compact(run.WPP)

	dir, err := os.MkdirTemp("", "twpp-hotpaths-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	compPath := filepath.Join(dir, "t.twpp")
	rawPath := filepath.Join(dir, "t.wpp")
	if err := twpp.WriteFile(compPath, tw); err != nil {
		log.Fatal(err)
	}
	if err := twpp.WriteRawFile(rawPath, run.WPP); err != nil {
		log.Fatal(err)
	}

	f, err := twpp.OpenFile(compPath)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()

	fmt.Printf("%d calls, %d unique traces overall\n\n", stats.Calls, stats.UniqueTraces)
	fmt.Println("functions, hottest first (the on-disk index order):")
	for _, id := range f.Functions() {
		fmt.Printf("  %-14s %6d calls\n", f.FuncNames[id], f.CallCount(id))
	}

	// Hot paths of the hottest function: unique traces ranked by how
	// many calls took them (counted from the stored DCG).
	hottest := f.Functions()[0]
	ft, err := f.ExtractFunction(hottest)
	if err != nil {
		log.Fatal(err)
	}
	dcg, err := f.ReadDCG()
	if err != nil {
		log.Fatal(err)
	}
	uses := make([]int, len(ft.Traces))
	for i, fn := range dcg.Fn {
		if fn == hottest {
			uses[dcg.Trace[i]]++
		}
	}
	fmt.Printf("\nhot paths of %s:\n", f.FuncNames[hottest])
	for i := range ft.Traces {
		path, err := ft.Expand(i)
		if err != nil {
			log.Fatal(err)
		}
		n := len(path)
		if n > 16 {
			path = path[:16]
		}
		fmt.Printf("  trace %d: %5d calls, path %v... (length %d)\n",
			i, uses[i], path, n)
	}

	// Access-time comparison: indexed TWPP extraction vs scanning the
	// raw file vs expanding the Sequitur grammar.
	start := time.Now()
	if _, err := f.ExtractFunction(hottest); err != nil {
		log.Fatal(err)
	}
	tIndexed := time.Since(start)

	start = time.Now()
	if _, err := twpp.ScanRawFile(rawPath, hottest); err != nil {
		log.Fatal(err)
	}
	tScan := time.Since(start)

	seq := twpp.CompressSequitur(run.WPP)
	start = time.Now()
	if _, err := seq.ExtractFunction(int(hottest)); err != nil {
		log.Fatal(err)
	}
	tSeq := time.Since(start)

	fmt.Printf("\nextraction of %s:\n", f.FuncNames[hottest])
	fmt.Printf("  TWPP indexed file:   %v\n", tIndexed)
	fmt.Printf("  raw WPP full scan:   %v (%.0fx slower)\n", tScan, float64(tScan)/float64(tIndexed))
	fmt.Printf("  Sequitur grammar:    %v (%.0fx slower; grammar %d bytes vs TWPP file %d)\n",
		tSeq, float64(tSeq)/float64(tIndexed), seq.Size(), fileSize(compPath))
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

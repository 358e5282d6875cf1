package workload

import (
	"bytes"
	"context"
	"path/filepath"
	"time"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/solver"
	"repro/internal/store"

	"repro/bench/report"
)

// Probes time one layer directly, on fixed inputs that do not depend on
// the seed, after the window of the workload that leans on that layer.
// They give the layer a number that moves only when the layer does.

// storeProbe times store.FileStore.Put at three fsync cadences on
// 600-byte values, the size of a cached verdict with a small model.
func storeProbe(o *Options, m map[string]float64) {
	val := bytes.Repeat([]byte{0xa5}, 600)
	for _, c := range []struct {
		metric string
		sync   int
		puts   int
	}{
		{"store.put_us_sync1", 1, 60},
		{"store.put_us_sync16", 16, 480},
		{"store.put_us_nosync", -1, 4000},
	} {
		dir := filepath.Join(o.WorkDir, "probe-"+c.metric)
		fs, err := store.OpenFile(dir, store.FileOptions{SyncEvery: c.sync, CompactBytes: -1})
		if err != nil {
			continue
		}
		key := make([]byte, 8)
		start := time.Now()
		for i := 0; i < c.puts; i++ {
			key[0], key[1] = byte(i), byte(i>>8)
			if fs.Put(store.Record{Kind: 1, Key: key, Val: val}) != nil {
				break
			}
		}
		end := time.Now()
		fs.Close()
		o.rec.Add(0, 0, "store.put", start, end, float64(c.puts))
		m[c.metric] = float64(end.Sub(start).Nanoseconds()) / 1e3 / float64(c.puts)
	}
}

// proofProbe times solver.VerifyDRAT on a fixed proof set: pigeonhole 7
// and two unsatisfiable threshold 3-SAT instances at n = 150.
func proofProbe(o *Options, m map[string]float64) {
	set := []*cnf.Formula{
		gen.Pigeonhole(7),
		gen.RandomKSAT(150, 639, 3, 3),
		gen.RandomKSAT(150, 639, 3, 6),
	}
	var verifyMS []float64
	var lemmas, totalS float64
	for _, f := range set {
		var buf bytes.Buffer
		w := solver.NewDRATWriter(&buf)
		ans := core.SolveContext(context.Background(), f, core.Options{Proof: w})
		if w.Flush() != nil || ans.Status != solver.Unsat || !ans.Proved {
			continue
		}
		n := float64(bytes.Count(buf.Bytes(), []byte{'\n'}))
		start := time.Now()
		err := solver.VerifyDRAT(f, bytes.NewReader(buf.Bytes()))
		end := time.Now()
		if err != nil {
			continue
		}
		o.rec.Add(0, 0, "solver.verify_drat", start, end, n)
		verifyMS = append(verifyMS, ms(end.Sub(start)))
		lemmas += n
		totalS += end.Sub(start).Seconds()
	}
	m["proof.verify_ms_p50"] = report.Median(verifyMS)
	if totalS > 0 {
		m["proof.verify_lemmas_per_s"] = lemmas / totalS
	}
}

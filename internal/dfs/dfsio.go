package dfs

import (
	"fmt"

	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/sim"
)

// DFSIOResult reports one TestDFSIO run, matching the Hadoop benchmark's
// headline metric: average per-writer throughput.
type DFSIOResult struct {
	BlockSize    float64 // nominal bytes
	TotalBytes   float64 // nominal bytes written
	Files        int
	Elapsed      float64 // seconds, slowest writer
	ThroughputBS float64 // bytes/sec, average of per-writer size/time
}

func (r DFSIOResult) String() string {
	return fmt.Sprintf("DFSIO files=%d block=%.0fMB total=%.1fGB elapsed=%.1fs throughput=%.1fMB/s",
		r.Files, r.BlockSize/cluster.MB, r.TotalBytes/cluster.GB, r.Elapsed, r.ThroughputBS/cluster.MB)
}

// RunDFSIOWrite runs the write phase of TestDFSIO: nFiles concurrent
// writers (assigned round-robin to nodes) each write totalBytes/nFiles,
// and the benchmark reports the average per-writer throughput. This is the
// workload behind Figure 2(a)'s block-size tuning.
//
// The filesystem should be created with the block size under test. The
// data content is synthetic (the real TestDFSIO writes constant bytes).
func RunDFSIOWrite(fs *FS, nFiles int, totalBytes float64) (DFSIOResult, error) {
	c := fs.Cluster()
	eng := c.Eng
	perFile := totalBytes / float64(nFiles)
	actualPerFile := int(perFile / fs.cfg.Scale)
	if actualPerFile < 1 {
		actualPerFile = 1
	}
	payload := make([]byte, actualPerFile)
	for i := range payload {
		payload[i] = byte('a' + i%26)
	}

	start := eng.Now()
	times := make([]float64, nFiles)
	var firstErr error
	for i := 0; i < nFiles; i++ {
		i := i
		client := i % c.N()
		eng.Go(fmt.Sprintf("dfsio-writer-%d", i), func(p *sim.Proc) {
			p.Node = client
			t0 := eng.Now()
			w := fs.Create(fmt.Sprintf("/benchmarks/TestDFSIO/io_data/test_io_%d", i), client)
			if err := w.Write(p, payload); err != nil && firstErr == nil {
				firstErr = err
				return
			}
			if err := w.Close(p); err != nil && firstErr == nil {
				firstErr = err
				return
			}
			times[i] = eng.Now() - t0
		})
	}
	if err := eng.Run(); err != nil {
		return DFSIOResult{}, err
	}
	if firstErr != nil {
		return DFSIOResult{}, firstErr
	}
	res := DFSIOResult{
		BlockSize:  fs.cfg.BlockSize,
		TotalBytes: totalBytes,
		Files:      nFiles,
		Elapsed:    eng.Now() - start,
	}
	sum := 0.0
	for _, t := range times {
		if t > 0 {
			sum += perFile / t
		}
	}
	res.ThroughputBS = sum / float64(nFiles)
	return res, nil
}

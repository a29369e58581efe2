package bench

// remote.go — the fault-tolerant remote-scatter experiment behind
// nokbench -table remote. The same 4-shard, path-routed collection that
// the -table shard experiment uses is measured twice: once opened
// in-process (every member store in the coordinator's address space) and
// once with all four shards rewired to loopback nokserve instances, so
// every query crosses the wire through the remote client's retry/breaker
// stack and the binary /scatter protocol. The budget bounds what the
// network layer is allowed to cost: the remote pass must stay within
// RemoteOverheadMax of the in-process pass.

import (
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"

	"nok"
	"nok/internal/server"
	"nok/internal/shard"
)

// RemoteResult reports the loopback-scatter experiment: the same
// workload pass against the same 4-shard collection, in-process vs over
// HTTP.
type RemoteResult struct {
	LocalUs  float64 // µs per workload pass, all shards in-process
	RemoteUs float64 // µs per workload pass, all shards behind loopback HTTP
	Ratio    float64 // RemoteUs / LocalUs
	Pruned   int64   // server-side pruned shards across one remote pass
}

// RemoteOverheadMax is the acceptance budget: scattering over loopback
// HTTP — connection reuse, binary result frames, server-side pruning —
// may cost at most this multiple of the in-process pass. It bounds
// protocol overhead, not network distance; the workload is sized so
// per-shard evaluation dominates a loopback round trip.
const RemoteOverheadMax = 2.0

// remoteShards is the topology under test, matching the -table shard
// experiment's widest row.
const remoteShards = 4

// Remote measures the workload against the 4-shard collection opened
// in-process, then rewires every shard to a loopback nokserve backend
// and measures again.
func Remote(cfg Config) (*RemoteResult, error) {
	cfg = cfg.WithDefaults()

	tmp, err := os.MkdirTemp("", "nok-remotebench")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	xmlPath := filepath.Join(tmp, "corpus.xml")
	// 3× the -table shard corpus: the budget compares against in-process
	// evaluation, so per-shard work has to dominate a loopback round trip
	// for the ratio to measure the protocol rather than the syscall floor.
	if err := os.WriteFile(xmlPath, []byte(shardDoc(1200*cfg.Scale)), 0o644); err != nil {
		return nil, err
	}
	coll := filepath.Join(tmp, "coll")
	created, err := shard.CreateFromFile(coll, xmlPath, &shard.Options{
		Shards: remoteShards, Strategy: shard.StrategyPath, Store: &nok.Options{PageSize: cfg.PageSize},
	})
	if err != nil {
		return nil, err
	}
	if err := created.Close(); err != nil {
		return nil, err
	}

	res := &RemoteResult{}

	// In-process baseline.
	local, err := shard.Open(coll, nil)
	if err != nil {
		return nil, err
	}
	res.LocalUs, _, err = measurePass(cfg, local)
	local.Close()
	if err != nil {
		return nil, err
	}

	// Stand up one loopback server per member store — each the same
	// server.Server that nokserve runs — and rewire the manifest so the
	// coordinator reaches every shard through the remote client.
	type member struct {
		store *nok.Store
		srv   *server.Server
		ts    *httptest.Server
	}
	members := make([]member, 0, remoteShards)
	defer func() {
		for _, m := range members {
			m.ts.Close()
			m.store.Close()
		}
	}()
	addrs := make([]string, remoteShards)
	for s := 0; s < remoteShards; s++ {
		st, err := nok.Open(filepath.Join(coll, fmt.Sprintf("shard-%04d", s)), nil)
		if err != nil {
			return nil, err
		}
		srv := server.NewBackend(st, server.Config{CacheEntries: -1})
		ts := httptest.NewServer(srv)
		members = append(members, member{store: st, srv: srv, ts: ts})
		addrs[s] = ts.URL
	}
	if err := shard.SetShardAddrs(coll, addrs); err != nil {
		return nil, err
	}
	rem, err := shard.Open(coll, nil)
	if err != nil {
		return nil, err
	}
	res.RemoteUs, res.Pruned, err = measurePass(cfg, rem)
	rem.Close()
	if err != nil {
		return nil, err
	}

	if res.LocalUs > 0 {
		res.Ratio = res.RemoteUs / res.LocalUs
	}
	return res, nil
}

// measurePass times the shardQueries workload against st: a warm-up
// pass, then the median over cfg.Runs batches, exactly as the -table
// shard experiment measures its topologies. It also reports how many
// shards were pruned during one pass (for the remote topology that
// pruning happens server-side, inside /scatter).
func measurePass(cfg Config, st shardStore) (us float64, pruned int64, err error) {
	for _, q := range shardQueries {
		_, stats, qerr := st.QueryWithOptions(q, nil)
		if qerr != nil {
			return 0, 0, fmt.Errorf("%s: %w", q, qerr)
		}
		for _, sh := range stats.Shards {
			if sh.Skipped {
				pruned++
			}
		}
	}
	d, _, err := timeMedian(cfg.Runs, func() (int, error) {
		const passes = 4
		for i := 0; i < passes; i++ {
			for _, q := range shardQueries {
				if _, _, qerr := st.QueryWithOptions(q, nil); qerr != nil {
					return 0, qerr
				}
			}
		}
		return passes, nil
	})
	if err != nil {
		return 0, 0, err
	}
	return d.Seconds() * 1e6 / 4, pruned, nil
}

// WriteRemote renders the loopback-scatter experiment with its
// acceptance verdict.
func WriteRemote(w io.Writer, r *RemoteResult) {
	fmt.Fprintf(w, "%-22s %14s\n", "topology", "pass(µs)")
	fmt.Fprintf(w, "%-22s %14.1f\n", "4 shards, in-process", r.LocalUs)
	fmt.Fprintf(w, "%-22s %14.1f\n", "4 shards, loopback", r.RemoteUs)
	verdict := "PASS"
	if r.Ratio > RemoteOverheadMax {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "remote/local = %.2fx  server-side pruned %d/pass  (budget ≤%.1fx: %s)\n",
		r.Ratio, r.Pruned, RemoteOverheadMax, verdict)
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"socialscope"
	"socialscope/internal/discovery"
	"socialscope/internal/graph"
	"socialscope/internal/obs"
	"socialscope/internal/serve"
)

const checkSamples = 50

// fetch GETs base+path and returns the 200 body.
func fetch(hc *http.Client, url string) ([]byte, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %.200s", url, resp.StatusCode, body)
	}
	return body, nil
}

// withNocache returns the request URI with the cache bypass forced on.
func withNocache(path string) string {
	if strings.Contains(path, "nocache=1") {
		return path
	}
	return path + "&nocache=1"
}

// sameRanking compares a served ranking with the oracle's, position by
// position.
func sameRanking(got, want []graph.NodeID) error {
	if len(got) != len(want) {
		return fmt.Errorf("served %d results, oracle has %d (served %v, oracle %v)", len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("rank %d: served item %d, oracle item %d (served %v, oracle %v)", i, got[i], want[i], got, want)
		}
	}
	return nil
}

// servedRanking extracts the ranked item ids from a /search or
// /recommend body.
func servedRanking(kind opKind, body []byte) ([]graph.NodeID, error) {
	var ids []graph.NodeID
	if kind == opRecommend {
		var r serve.RecommendResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, err
		}
		for _, rec := range r.Recommendations {
			ids = append(ids, rec.Item)
		}
		return ids, nil
	}
	var r serve.SearchResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, err
	}
	for _, res := range r.Results {
		ids = append(ids, res.Item)
	}
	return ids, nil
}

// oracleRanking answers the op on the exhaustive-strategy engine.
func oracleRanking(oracle *socialscope.Engine, o op) ([]graph.NodeID, error) {
	var ids []graph.NodeID
	if o.kind == opRecommend {
		recs, err := oracle.RecommendCtx(context.Background(), o.user, discovery.CFStepwise)
		if err != nil {
			return nil, err
		}
		for _, rec := range recs {
			ids = append(ids, rec.Item)
		}
		return ids, nil
	}
	q, err := discovery.ParseQuery(o.query)
	if err != nil {
		return nil, err
	}
	q.K = resultK
	resp, err := oracle.QueryCtx(context.Background(), o.user, q)
	if err != nil {
		return nil, err
	}
	for _, res := range resp.Results() {
		ids = append(ids, res.Item)
	}
	return ids, nil
}

// checkReads samples reads from the workload's own generator and holds
// each to two oracles: the cached and nocache=1 paths must serve the
// same bytes, and the served ranking must equal the one a
// TopKExhaustive engine computes over the same graph. Runs after the
// load has stopped, so the engine version is still.
func checkReads(r *rig, gen *generator) error {
	oracle, err := socialscope.New(r.leader.eng.Graph(), engineConfig(socialscope.TopKExhaustive, obs.NewRegistry()))
	if err != nil {
		return err
	}
	hc := &http.Client{Timeout: 5 * requestLimit}
	defer hc.CloseIdleConnections()
	checked := 0
	for tries := 0; checked < checkSamples; tries++ {
		if tries > 100*checkSamples {
			return fmt.Errorf("check: the generator produced only %d reads in %d ops", checked, tries)
		}
		o := gen.next()
		if !o.kind.read() {
			continue
		}
		// Straight to the leader: behind the router the two fetches could
		// land on replicas at different versions.
		base := "http://" + r.leader.addr()
		cached, err := fetch(hc, base+o.path)
		if err != nil {
			return err
		}
		if bypassPath := withNocache(o.path); bypassPath != o.path { // else the op bypasses the cache itself
			bypass, err := fetch(hc, base+bypassPath)
			if err != nil {
				return err
			}
			if !bytes.Equal(cached, bypass) {
				return fmt.Errorf("check %s: cached and nocache bodies differ:\n cached: %s\n bypass: %s", o.path, cached, bypass)
			}
		}
		got, err := servedRanking(o.kind, cached)
		if err != nil {
			return fmt.Errorf("check %s: %w", o.path, err)
		}
		want, err := oracleRanking(oracle, o)
		if err != nil {
			return fmt.Errorf("check %s: oracle: %w", o.path, err)
		}
		if err := sameRanking(got, want); err != nil {
			return fmt.Errorf("check %s: %w", o.path, err)
		}
		checked++
	}
	return nil
}

// checkWrites verifies every acknowledged write is on the leader and
// that the leader stands at exactly the last acknowledged version.
func checkWrites(r *rig, clients []*client) error {
	g := r.leader.eng.Graph()
	var lastAcked uint64
	for _, c := range clients {
		lastAcked = max(lastAcked, c.lastVersion)
		for _, id := range c.ackedLinks {
			if !g.HasLink(id) {
				return fmt.Errorf("check: acknowledged link %d is missing from the leader", id)
			}
		}
	}
	if v := r.leader.eng.Version(); r.wl.durable && v != lastAcked {
		return fmt.Errorf("check: leader at version %d, last acknowledged version %d", v, lastAcked)
	}
	return nil
}

// probeBody is the wire answer of an engine to the fixed probe query.
func probeBody(eng *socialscope.Engine, user graph.NodeID) ([]byte, error) {
	q, err := discovery.ParseQuery(probeQuery)
	if err != nil {
		return nil, err
	}
	resp, err := eng.QueryCtx(context.Background(), user, q)
	if err != nil {
		return nil, err
	}
	return json.Marshal(serve.SearchResponseFromEngine(eng, resp.Version, q, resp, nil))
}

// recovery is a durable engine opened on a copy of a rig's directory.
type recovery struct {
	eng  *socialscope.Engine
	reg  *obs.Registry
	dir  string
	took time.Duration // OpenDurable alone, the copy excluded
}

// recoverCopy opens a durable engine on a copy of the rig's directory,
// taken without Close — the state a crash right now would leave.
func recoverCopy(r *rig, outDir string) (*recovery, error) {
	dir, err := os.MkdirTemp(outDir, "recover-")
	if err != nil {
		return nil, err
	}
	if err = copyDir(r.dir, dir); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	rec := &recovery{reg: obs.NewRegistry(), dir: dir}
	t0 := time.Now()
	rec.eng, err = socialscope.OpenDurable(dir, nil, engineConfig(socialscope.TopKTA, rec.reg),
		socialscope.DurableOptions{CheckpointEvery: checkpointEvery})
	rec.took = time.Since(t0)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return rec, nil
}

// close releases the recovered engine and removes the copy.
func (rec *recovery) close() error {
	err := rec.eng.Close()
	os.RemoveAll(rec.dir)
	return err
}

// checkRecovery recovers a copy of the durable directory and holds it
// to the live leader: same version, same bytes for the probe query.
func checkRecovery(r *rig, outDir string) error {
	rec, err := recoverCopy(r, outDir)
	if err != nil {
		return fmt.Errorf("check: recovery: %w", err)
	}
	defer rec.close()
	eng := rec.eng
	if got, want := eng.Version(), r.leader.eng.Version(); got != want {
		return fmt.Errorf("check: recovered at version %d, leader acknowledged %d", got, want)
	}
	user := r.corpus.Users[0]
	live, err := probeBody(r.leader.eng, user)
	if err != nil {
		return err
	}
	recovered, err := probeBody(eng, user)
	if err != nil {
		return err
	}
	if !bytes.Equal(live, recovered) {
		return fmt.Errorf("check: probe answers differ after recovery:\n live:      %s\n recovered: %s", live, recovered)
	}
	return nil
}

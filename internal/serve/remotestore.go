package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/obs/tracing"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// maxRecordBytes bounds a single result record on the wire (reports with
// dense sampling are large, but bounded).
const maxRecordBytes = 64 << 20

// RemoteStore is a sweep.Store backed by a dsre-serve daemon's artifact
// endpoints, so a dsre-sweep (or dsre-explain) anywhere on the network
// shares the daemon's content-addressed cache.  It enforces the same
// contract as the local DirStore: a missing, stale-versioned or corrupt
// object is a miss (nil, nil), never a wrong result — every payload is
// re-verified against its sealed SHA-256 on arrival, so a corrupted
// object served by a remote store is rejected client-side too.
type RemoteStore struct {
	base      string
	client    *http.Client
	onCorrupt func(hash, detail string)
	tc        tracing.Context
}

// NewRemoteStore builds a store talking to the daemon at base (e.g.
// "http://127.0.0.1:8177").  client may be nil for a defaulted one.
func NewRemoteStore(base string, client *http.Client) *RemoteStore {
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	return &RemoteStore{base: strings.TrimRight(base, "/"), client: client}
}

// SetOnCorrupt installs the corruption observer (the engine wires it to
// the store_corrupt event, exactly as for DirStore).
func (st *RemoteStore) SetOnCorrupt(fn func(hash, detail string)) { st.onCorrupt = fn }

// SetTraceContext makes every subsequent Get/Put carry tc as a
// traceparent header, so daemon-side request logs tie cache traffic to
// the run that caused it.  Call before sharing the store across
// goroutines (it is not synchronised).
func (st *RemoteStore) SetTraceContext(tc tracing.Context) { st.tc = tc }

// remoteError condenses a non-2xx response into an error, preferring the
// dsre-serve-error/v1 envelope's code/message/trace over the bare status.
func remoteError(op, hash string, resp *http.Response) error {
	var env ErrorResponse
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if jerr := json.Unmarshal(body, &env); jerr == nil && env.Schema == ErrorSchema && env.Code != "" {
		if env.Trace != "" {
			return fmt.Errorf("serve: store %s %s: HTTP %d %s: %s (trace %s)", op, hash, resp.StatusCode, env.Code, env.Message, env.Trace)
		}
		return fmt.Errorf("serve: store %s %s: HTTP %d %s: %s", op, hash, resp.StatusCode, env.Code, env.Message)
	}
	return fmt.Errorf("serve: store %s %s: HTTP %d", op, hash, resp.StatusCode)
}

// Get fetches and verifies the record for a hash.  404 is a miss; a
// record that fails schema, hash, version or payload verification is a
// miss too (reported through OnCorrupt when the payload hash lies).
// Transport errors are returned — the engine treats them as misses and
// recomputes.
func (st *RemoteStore) Get(hash string) (*sweep.Record, error) {
	req, err := http.NewRequest(http.MethodGet, st.base+"/v1/artifacts/"+hash, nil)
	if err != nil {
		return nil, fmt.Errorf("serve: store get %s: %w", hash, err)
	}
	if st.tc.Valid() {
		st.tc.SetHeader(req.Header)
	}
	resp, err := st.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("serve: store get %s: %w", hash, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, resp.Body)
		return nil, nil
	}
	if resp.StatusCode != http.StatusOK {
		return nil, remoteError("get", hash, resp)
	}
	var rec sweep.Record
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxRecordBytes)).Decode(&rec); err != nil {
		return nil, fmt.Errorf("serve: store get %s: %w", hash, err)
	}
	if rec.Schema != sweep.RecordSchema || rec.Hash != hash || rec.SimVersion != sim.Version || rec.Report == nil {
		return nil, nil
	}
	if err := rec.VerifyPayload(); err != nil {
		if st.onCorrupt != nil {
			st.onCorrupt(hash, err.Error())
		}
		return nil, nil
	}
	return &rec, nil
}

// Put seals and uploads a record.  The daemon's write is first-write-wins,
// so concurrent writers of the same hash are safe.
func (st *RemoteStore) Put(rec *sweep.Record) error {
	if _, err := rec.Seal(); err != nil {
		return err
	}
	body, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("serve: store put %s: %w", rec.Hash, err)
	}
	req, err := http.NewRequest(http.MethodPut, st.base+"/v1/artifacts/"+rec.Hash, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("serve: store put %s: %w", rec.Hash, err)
	}
	req.Header.Set("Content-Type", "application/json")
	if st.tc.Valid() {
		st.tc.SetHeader(req.Header)
	}
	resp, err := st.client.Do(req)
	if err != nil {
		return fmt.Errorf("serve: store put %s: %w", rec.Hash, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return remoteError("put", rec.Hash, resp)
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}

package main

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"crowdmap/internal/cloud/server"
)

// upload sends one archive through the chunk protocol and returns the
// round trip of its last chunk: from sending it to the 201.
func upload(hc *http.Client, base string, c capture) (time.Time, time.Duration, error) {
	total := (len(c.Archive) + server.ChunkSize - 1) / server.ChunkSize
	for i := 0; i < total; i++ {
		lo, hi := i*server.ChunkSize, (i+1)*server.ChunkSize
		if hi > len(c.Archive) {
			hi = len(c.Archive)
		}
		url := fmt.Sprintf("%s/api/v1/captures/%s/chunks?index=%d&total=%d", base, c.ID, i, total)
		start := time.Now()
		resp, err := hc.Post(url, "application/octet-stream", bytes.NewReader(c.Archive[lo:hi]))
		if err != nil {
			return start, 0, fmt.Errorf("upload %s chunk %d: %w", c.ID, i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		took := time.Since(start)
		want := http.StatusAccepted
		if i == total-1 {
			want = http.StatusCreated
		}
		if resp.StatusCode != want {
			return start, took, fmt.Errorf("upload %s chunk %d: %s, want %d", c.ID, i, resp.Status, want)
		}
		if i == total-1 {
			return start, took, nil
		}
	}
	return time.Time{}, 0, fmt.Errorf("upload %s: empty archive", c.ID)
}

// locateBody is the request body for one query, encoded once up front.
func locateBody(q query) []byte {
	b, _ := json.Marshal(server.LocateRequest{FramePNG: base64.StdEncoding.EncodeToString(q.PNG)})
	return b
}

// locate sends one query and returns its round trip.
func locate(hc *http.Client, base, building string, body []byte) (server.LocateResponse, time.Duration, error) {
	var out server.LocateResponse
	start := time.Now()
	code, err := postJSON(hc, base+"/api/v1/buildings/"+building+"/locate", body, &out)
	took := time.Since(start)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("locate %s: status %d", building, code)
	}
	return out, took, err
}

// fetchPlan returns a building's served plan JSON and version, or
// ok=false while nothing is served yet.
func fetchPlan(hc *http.Client, base, building string) (data []byte, version uint64, ok bool, err error) {
	resp, err := hc.Get(base + "/api/v1/buildings/" + building + "/plan")
	if err != nil {
		return nil, 0, false, err
	}
	defer resp.Body.Close()
	data, err = io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, false, err
	}
	switch resp.StatusCode {
	case http.StatusNotFound:
		return nil, 0, false, nil
	case http.StatusOK:
		v, err := strconv.ParseUint(resp.Header.Get("X-Plan-Version"), 10, 64)
		return data, v, err == nil, err
	}
	return nil, 0, false, fmt.Errorf("GET plan %s: %s", building, resp.Status)
}

// listCaptures returns GET /api/v1/captures.
func listCaptures(hc *http.Client, base string) (map[string]bool, error) {
	resp, err := hc.Get(base + "/api/v1/captures")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var ids []string
	if err := json.NewDecoder(resp.Body).Decode(&ids); err != nil {
		return nil, fmt.Errorf("list captures: %w", err)
	}
	out := make(map[string]bool, len(ids))
	for _, id := range ids {
		out[id] = true
	}
	return out, nil
}

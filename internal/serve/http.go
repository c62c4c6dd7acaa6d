package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
)

// HTTP transport for the server: a small JSON API suitable for fronting with
// any load balancer.
//
//	POST /query    {"sql": "...", "budget": 0.05}  → Response
//	POST /append   {"rows": [[cell, ...], ...]}    → appendResponse
//	GET  /stats    → Metrics
//	GET  /healthz  → 200 "ok" (liveness: the process answers)
//	GET  /readyz   → readyResponse (readiness: route traffic here or not)
//
// An append row lists one cell per schema column in schema order: a JSON
// number (or null, decoded as NaN — JSON has no NaN literal) for numeric
// columns, a string for categorical ones. The call returns after the rows
// are durably logged; 409 on a server with no write path.
//
// Failure-mode status codes (see DESIGN.md "Failure model & degraded
// modes"): 503 + Retry-After when shed (queue full), draining, or the
// write path is read-only (poisoned ingest); 504 when the request missed
// its deadline. A response with "degraded": true is a 200 — the answer is
// honest about covering less data, and the client decides.
//
// Request bodies are bounded before they are decoded: 413 beyond
// maxQueryBody on /query and maxAppendBody on /append.

const (
	maxQueryBody = 1 << 20
	// maxAppendBody leaves room for JSON's expansion over the WAL's own
	// 16 MiB record limit (ingest.MaxRecordBytes), which still applies to
	// what the body decodes to.
	maxAppendBody = 64 << 20
)

// queryRequest is the POST /query body.
type queryRequest struct {
	SQL    string  `json:"sql"`
	Budget float64 `json:"budget"`
}

// appendRequest is the POST /append body.
type appendRequest struct {
	Rows [][]any `json:"rows"`
}

// appendResponse acknowledges a durable append.
type appendResponse struct {
	Appended int `json:"appended"`
	// SnapshotVersion is the version serving at acknowledgement time;
	// the appended rows appear in queries no later than the next version.
	SnapshotVersion int64 `json:"snapshot_version"`
}

// errorResponse is the JSON error body.
type errorResponse struct {
	Error string `json:"error"`
}

// readyResponse is the GET /readyz body: whether a load balancer should
// route traffic here, and the degraded-mode flags behind that verdict.
type readyResponse struct {
	Ready    bool `json:"ready"`
	Draining bool `json:"draining,omitempty"`
	// ReadOnly + ReadOnlyReason report a poisoned write path. The server
	// stays ready — queries serve fine — but writers should go elsewhere.
	ReadOnly       bool   `json:"read_only,omitempty"`
	ReadOnlyReason string `json:"read_only_reason,omitempty"`
}

// Handler returns the HTTP API over the server.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("POST /append", s.handleAppend)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", s.handleReady)
	return mux
}

func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	resp := readyResponse{Draining: s.Draining()}
	resp.ReadOnly, resp.ReadOnlyReason = s.ReadOnly()
	resp.Ready = !resp.Draining
	status := http.StatusOK
	if !resp.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

// writeQueryError maps a serving error to its transport shape: shed and
// draining answers are 503 with a Retry-After hint (retry is the right
// client move — elsewhere or later), deadline misses are 504, everything
// else is the generic 422.
func writeQueryError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrShed) || errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
	case errors.Is(err, context.DeadlineExceeded):
		writeJSON(w, http.StatusGatewayTimeout, errorResponse{Error: err.Error()})
	default:
		writeJSON(w, http.StatusUnprocessableEntity, errorResponse{Error: err.Error()})
	}
}

// decodeBody decodes a JSON request body of at most limit bytes into v. On
// failure it has answered — 413 for an oversized body, 400 for a malformed
// one — and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	var err error
	if r.ContentLength > limit {
		err = &http.MaxBytesError{Limit: limit} // declared oversize: refused unread
	} else {
		err = json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	}
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf("bad request body: %v", err)})
	return false
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !decodeBody(w, r, maxQueryBody, &req) {
		return
	}
	if req.SQL == "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "missing \"sql\" field"})
		return
	}
	if !(req.Budget >= 0 && req.Budget <= 1) {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "budget must be in [0, 1] (0 or absent: the server default)"})
		return
	}
	resp, err := s.QuerySQLCtx(r.Context(), req.SQL, req.Budget)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	if s.Appender() == nil {
		writeJSON(w, http.StatusConflict, errorResponse{Error: "server is read-only; start with -ingest to accept appends"})
		return
	}
	var req appendRequest
	if !decodeBody(w, r, maxAppendBody, &req) {
		return
	}
	if len(req.Rows) == 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "missing \"rows\" field"})
		return
	}
	schema := s.System().Source.TableSchema()
	num := make([][]float64, len(req.Rows))
	cat := make([][]string, len(req.Rows))
	for i, row := range req.Rows {
		if len(row) != len(schema.Cols) {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("row %d has %d cells, schema has %d columns", i, len(row), len(schema.Cols))})
			return
		}
		nr := make([]float64, len(schema.Cols))
		cr := make([]string, len(schema.Cols))
		for c, col := range schema.Cols {
			cell := row[c]
			if col.IsNumeric() {
				switch v := cell.(type) {
				case float64:
					nr[c] = v
				case nil:
					nr[c] = math.NaN()
				default:
					writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("row %d column %q: want a number or null, got %T", i, col.Name, cell)})
					return
				}
				continue
			}
			v, ok := cell.(string)
			if !ok {
				writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("row %d column %q: want a string, got %T", i, col.Name, cell)})
				return
			}
			cr[c] = v
		}
		num[i] = nr
		cat[i] = cr
	}
	if err := s.Append(num, cat); err != nil {
		if errors.Is(err, ErrReadOnly) {
			// The pipeline is poisoned: this won't clear until an operator
			// intervenes, so hint a long retry.
			w.Header().Set("Retry-After", "30")
			writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusUnprocessableEntity, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, appendResponse{Appended: len(req.Rows), SnapshotVersion: s.SnapshotVersion()})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// writeJSON encodes v before it writes the status line, so a value that
// cannot be encoded answers 500 with an error body instead of the intended
// status over an empty one.
func writeJSON(w http.ResponseWriter, status int, v any) {
	var body bytes.Buffer
	if err := json.NewEncoder(&body).Encode(v); err != nil {
		body.Reset()
		status = http.StatusInternalServerError
		// An errorResponse is a string field: this encode cannot fail.
		_ = json.NewEncoder(&body).Encode(errorResponse{Error: fmt.Sprintf("encoding the %T response: %v", v, err)})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body.Bytes()) // a failed write means the client is gone
}

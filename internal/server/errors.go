package server

import (
	"errors"
	"net/http"
)

// Sentinel errors classifying serving failures. The HTTP layer maps them
// to status codes with errors.Is — not substring matching — so wrapped
// causes keep their classification across layers, and HTTPClient restores
// them from the error envelope's code so the classification survives the
// wire too.
var (
	// ErrUnknownMatrix: the requested matrix id is not registered (404).
	ErrUnknownMatrix = errors.New("server: unknown matrix")
	// ErrAlreadyRegistered: the id is taken; entries are immutable (409).
	ErrAlreadyRegistered = errors.New("server: already registered")
	// ErrNotSymmetric: symmetric storage was required for a matrix that is
	// not numerically symmetric (400).
	ErrNotSymmetric = errors.New("server: matrix is not symmetric")
	// ErrMemberFault: a shard member or its transport failed while serving
	// an otherwise valid request — the fleet's fault, not the client's
	// (502).
	ErrMemberFault = errors.New("server: member fault")
	// ErrUnknownSession: the requested solver-session id is not resident
	// (404).
	ErrUnknownSession = errors.New("server: unknown solve session")
	// ErrTooManySessions: the resident-session cap is reached and every
	// session is still running (429).
	ErrTooManySessions = errors.New("server: too many solve sessions")
	// ErrAdmissionLimited: the tenant's token bucket cannot cover the
	// request's modeled cost yet (429 with Retry-After). Errors carrying
	// this classification are *AdmissionError values holding the tenant
	// and the bucket's refill estimate.
	ErrAdmissionLimited = errors.New("server: admission limited")
	// ErrDeadlineExceeded: the request's deadline expired while it was
	// queued, so it was shed instead of executed (504).
	ErrDeadlineExceeded = errors.New("server: deadline exceeded")
	// ErrMethodNotAllowed: the path names a known resource but the method
	// is not one it serves (405 with an Allow header).
	ErrMethodNotAllowed = errors.New("server: method not allowed")
	// ErrShardedImmutable: the matrix is cluster-sharded, whose band
	// registrations are immutable — PATCH is only served by local entries
	// (409).
	ErrShardedImmutable = errors.New("server: sharded matrices are immutable")
	// ErrInvalidArgument: the request is well-formed but a value in it is
	// not one the server will compute on — a NaN or ±Inf in x (400).
	ErrInvalidArgument = errors.New("server: invalid argument")
	// ErrUnsupportedMediaType: the request body's Content-Type is not a
	// codec the endpoint speaks (415).
	ErrUnsupportedMediaType = errors.New("server: unsupported media type")
)

// errorTable is the one place a sentinel meets its envelope code and its
// HTTP status. errorCode, statusOf and HTTPClient's sentinel restoration
// all read it, so a classification cannot differ between the status line,
// the envelope and the client. Order decides errors that match twice:
// ErrMemberFault leads because a member that lost its band mid-request is
// a fleet fault (502) even though the wrapped member error says "unknown
// matrix" (404).
var errorTable = []struct {
	err    error
	code   string
	status int
}{
	{ErrMemberFault, "member_fault", http.StatusBadGateway},
	{ErrUnknownMatrix, "unknown_matrix", http.StatusNotFound},
	{ErrAlreadyRegistered, "already_registered", http.StatusConflict},
	{ErrNotSymmetric, "not_symmetric", http.StatusBadRequest},
	{ErrUnknownSession, "unknown_session", http.StatusNotFound},
	{ErrTooManySessions, "too_many_sessions", http.StatusTooManyRequests},
	{ErrAdmissionLimited, "admission_limited", http.StatusTooManyRequests},
	{ErrDeadlineExceeded, "deadline_exceeded", http.StatusGatewayTimeout},
	{ErrMethodNotAllowed, "method_not_allowed", http.StatusMethodNotAllowed},
	{ErrShardedImmutable, "sharded_immutable", http.StatusConflict},
	{ErrInvalidArgument, "invalid_argument", http.StatusBadRequest},
	{ErrUnsupportedMediaType, "unsupported_media_type", http.StatusUnsupportedMediaType},
}

// statusOf is the HTTP status a failed API call answers with: the
// table's for a classified error, 400 for anything else (validation
// failures carry no sentinel).
func statusOf(err error) int {
	for _, row := range errorTable {
		if errors.Is(err, row.err) {
			return row.status
		}
	}
	return http.StatusBadRequest
}

// sentinelByCode inverts an envelope code back to the sentinel the server
// classified with; nil for codes that name only a status class.
func sentinelByCode(code string) error {
	for _, row := range errorTable {
		if row.code == code {
			return row.err
		}
	}
	return nil
}

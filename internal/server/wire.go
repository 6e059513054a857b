package server

// The /v1/query reply encoder. A reply is appended field by field into one
// pooled buffer straight from the result's tuples and handed to the connection
// in one Write (a stream: in pieces of at most streamChunk). The bytes are
// the ones encoding/json writes for the same values — an Encoder with
// SetIndent("", "  ") for the buffered body, a plain Encoder per NDJSON
// line — without building a response value, a string per tuple, or the
// indenting pass over the finished body.

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"
)

const (
	// maxPooledReply caps the buffers kept for reuse: one huge reply must
	// not pin its memory for the life of the process.
	maxPooledReply = 1 << 20

	// streamChunk is the size past which a stream hands its buffer to the
	// connection.
	streamChunk = 32 << 10
)

var replyBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, streamChunk+4<<10)
	return &b
}}

// withReplyBuf runs fill on a pooled, empty buffer and returns the buffer
// fill left behind to the pool.
func withReplyBuf(fill func(b []byte) []byte) {
	p := replyBufs.Get().(*[]byte)
	*p = fill((*p)[:0])
	if cap(*p) <= maxPooledReply {
		replyBufs.Put(p)
	}
}

// writeReply writes the buffered /v1/query body: queryResponse, encoded.
// Here and in writeStream a failed Write means the client has gone; there
// is no one left to report it to, so the error is dropped.
func writeReply(w http.ResponseWriter, sessionID, qid string, res *queryResult, elapsedMS float64) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	withReplyBuf(func(b []byte) []byte {
		b = appendReply(b, sessionID, qid, res, elapsedMS)
		_, _ = w.Write(b)
		return b
	})
}

// appendReply appends queryResponse for res as an Encoder with
// SetIndent("", "  ") writes it, trailing newline included.
func appendReply(b []byte, sessionID, qid string, res *queryResult, elapsedMS float64) []byte {
	b = appendJSONString(append(b, "{\n  \"session\": "...), sessionID)
	b = appendJSONString(append(b, ",\n  \"query_id\": "...), qid)
	b = appendJSONString(append(b, ",\n  \"target\": "...), res.target)
	b = appendJSONString(append(b, ",\n  \"schema\": "...), res.rel.Schema().String())
	b = append(b, ",\n  \"tuples\": "...)
	if res.rows == 0 {
		b = append(b, "[]"...)
	} else {
		b = append(b, '[')
		var scratch [256]byte
		line := scratch[:0]
		for i := range res.rows {
			if i > 0 {
				b = append(b, ',')
			}
			line = res.rel.AppendRow(line[:0], i)
			b = appendJSONString(append(b, "\n    "...), line)
		}
		b = append(b, "\n  ]"...)
	}
	b = strconv.AppendInt(append(b, ",\n  \"count\": "...), int64(res.rel.Len()), 10)
	if res.truncated {
		b = append(b, ",\n  \"truncated\": true"...)
	}
	b = appendJSONFloat(append(b, ",\n  \"elapsed_ms\": "...), elapsedMS)
	if len(res.stats) > 0 {
		b = appendNested(append(b, ",\n  \"stats\": "...), res.stats, true)
	}
	if res.cache != nil {
		b = appendNested(append(b, ",\n  \"cache\": "...), res.cache, true)
	}
	if res.explain != "" {
		b = appendJSONString(append(b, ",\n  \"explain\": "...), res.explain)
	}
	if len(res.trace) > 0 {
		b = appendNested(append(b, ",\n  \"trace\": "...), res.trace, true)
	}
	return append(b, "\n}\n"...)
}

// writeStream writes res as NDJSON: a header object, one {"tuple": ...}
// object per row, a trailer object, each key order encoding/json's for a
// map (sorted). The result is complete before the first byte, so the body
// goes out in pieces of about streamChunk and is flushed once, at the end.
func writeStream(w http.ResponseWriter, sessionID, qid string, res *queryResult, elapsedMS float64) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	withReplyBuf(func(b []byte) []byte {
		b = strconv.AppendInt(append(b, `{"count":`...), int64(res.rel.Len()), 10)
		b = appendJSONString(append(b, `,"query_id":`...), qid)
		b = appendJSONString(append(b, `,"schema":`...), res.rel.Schema().String())
		b = appendJSONString(append(b, `,"session":`...), sessionID)
		b = appendJSONString(append(b, `,"target":`...), res.target)
		b = append(b, "}\n"...)
		var scratch [256]byte
		line := scratch[:0]
		for i := range res.rows {
			line = res.rel.AppendRow(line[:0], i)
			b = append(appendJSONString(append(b, `{"tuple":`...), line), "}\n"...)
			if len(b) >= streamChunk {
				_, _ = w.Write(b)
				b = b[:0]
			}
		}
		b = appendJSONFloat(append(b, `{"done":true,"elapsed_ms":`...), elapsedMS)
		if res.explain != "" {
			b = appendJSONString(append(b, `,"explain":`...), res.explain)
		}
		if res.stats != nil {
			b = appendNested(append(b, `,"stats":`...), res.stats, false)
		}
		if res.trace != nil {
			b = appendNested(append(b, `,"trace":`...), res.trace, false)
		}
		if res.truncated {
			b = append(b, `,"truncated":true`...)
		}
		b = append(b, "}\n"...)
		_, _ = w.Write(b)
		return b
	})
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}

// appendNested appends v as encoding/json writes it as a field value: one
// level deep in an indented object, or on one line. It is called with the
// stats rows, the cache counters and the trace, whose encodings cannot
// fail; were one to, the field would read null.
func appendNested(b []byte, v any, indent bool) []byte {
	var (
		raw []byte
		err error
	)
	if indent {
		raw, err = json.MarshalIndent(v, "  ", "  ")
	} else {
		raw, err = json.Marshal(v)
	}
	if err != nil {
		return append(b, "null"...)
	}
	return append(b, raw...)
}

// appendJSONFloat appends f as encoding/json writes a float64: the shortest
// decimal that reads back as f, in exponent form below 1e-6 and from 1e21
// on, with a one-digit negative exponent unpadded. f must be finite.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 → e-7
		b = b[:n-1]
	}
	return b
}

// htmlSafe[c] reports whether ASCII byte c goes into a JSON string as it
// is under encoding/json's HTML escaping: printable, and none of " \ < > &.
var htmlSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		safe[c] = true
	}
	for _, c := range `"\<>&` {
		safe[c] = false
	}
	return safe
}()

const hexDigits = "0123456789abcdef"

// appendJSONString appends s quoted as encoding/json writes a string with
// HTML escaping on: " and \ backslashed; \b \f \n \r \t by name; other
// control bytes and < > & as \u00XX; invalid UTF-8 as \ufffd; U+2028 and
// U+2029 as \u2028 and \u2029.
func appendJSONString[S []byte | string](b []byte, s S) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		// Decode from a copy of at most utf8.UTFMax bytes, which stays on
		// the stack for either type of s.
		n := min(len(s)-i, utf8.UTFMax)
		r, size := utf8.DecodeRuneInString(string(s[i : i+n]))
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

// Package lease is the coordination layer of distributed execution:
// multiple worker processes sharing one checkpoint directory claim units
// of work through filesystem leases, so a sweep fans out across
// processes (and machines sharing a filesystem) while any worker can be
// SIGKILLed at any instant without changing the merged result.
//
// The protocol is built from three primitives, all plain files under
// <dir>/lease/:
//
//	units/<unit>.lease — the current lease on a unit. A fresh unit is
//	    claimed by hard-linking a whole record into place (exactly one
//	    winner, like O_EXCL); an expired lease is taken over by atomic
//	    rename with a freshly allocated fencing token, and the rename
//	    winner is decided by read-back.
//	tokens/t<n>       — the fencing-token allocator: creating t<n> with
//	    O_EXCL allocates token n, so tokens are globally unique and
//	    monotonically increasing across all workers.
//	done/<unit>.done  — completion markers, linked into place after the
//	    unit's result is durably journaled: the first valid completion
//	    wins, later duplicates (speculation, zombies) detect the loss
//	    and stand down. No unit is leased once its marker exists.
//
// Leases and markers are written to temp files under tmp/ and fsync'd
// before they are linked or renamed into place, so a reader never sees
// a partial record.
//
// Fencing makes zombies harmless: every result is journaled under the
// fencing token it was computed with, and the journal merge keeps the
// highest token per unit (counting conflicts). Because every unit in
// this module is a deterministic pure function of its key, duplicated
// executions produce byte-identical payloads — the merge asserts this,
// so speculation and lease takeovers are observable in counters but can
// never change the output.
package lease

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// WireVersion is the lease/done record format version; records written
// by an incompatible version fail to parse and are treated as torn.
const WireVersion = 1

// magic is the leading field of every record line.
var magic = fmt.Sprintf("lease/%d", WireVersion)

// Record is one parsed lease or done-marker line. Owner and Unit are
// free-form strings (quoted on the wire); Expires and Dur are
// nanosecond timestamps/durations.
type Record struct {
	// Token is the fencing token the holder allocated for this claim.
	Token uint64
	// Owner is the worker ID that wrote the record.
	Owner string
	// Unit names the work unit the record is about.
	Unit string
	// Expires is the lease deadline as Unix nanoseconds. Done markers
	// carry the completion time here.
	Expires int64
	// Dur is the unit's execution wall time in nanoseconds (done markers
	// only; 0 on leases).
	Dur int64
	// Err is the unit's permanent failure, "" for success (done markers
	// only).
	Err string
}

// ErrBadRecord reports an unparsable lease/done record — a torn write or
// an alien file. Torn records are treated as expired leases (safe to
// reclaim), never trusted.
var ErrBadRecord = errors.New("lease: malformed record")

// String renders the record in the wire format, newline-terminated:
//
//	lease/1 token=7 owner="w1" unit="simnet.sweep~9~a1b2c3d4~0.3" expires=171234 dur=42 err="boom"
//
// dur and err are omitted when zero. Format and Parse round-trip
// exactly; the fuzz target asserts it.
func (r Record) String() string {
	var b strings.Builder
	b.WriteString(magic)
	fmt.Fprintf(&b, " token=%d owner=%s unit=%s expires=%d",
		r.Token, strconv.Quote(r.Owner), strconv.Quote(r.Unit), r.Expires)
	if r.Dur != 0 {
		fmt.Fprintf(&b, " dur=%d", r.Dur)
	}
	if r.Err != "" {
		fmt.Fprintf(&b, " err=%s", strconv.Quote(r.Err))
	}
	b.WriteByte('\n')
	return b.String()
}

// Parse decodes one record line. The trailing newline is the record
// terminator and is required: a torn write (crash mid-append) is missing
// it, so no strict prefix of a valid record ever parses — not even one
// that truncates an unquoted numeric field to a shorter valid number.
// Unknown keys are rejected and required keys (token, owner, unit,
// expires) must all be present exactly once.
func Parse(data []byte) (Record, error) {
	s, terminated := strings.CutSuffix(string(data), "\n")
	if !terminated {
		return Record{}, fmt.Errorf("%w: missing record terminator (torn write)", ErrBadRecord)
	}
	if strings.ContainsAny(s, "\n\r") {
		return Record{}, fmt.Errorf("%w: embedded newline", ErrBadRecord)
	}
	rest, ok := strings.CutPrefix(s, magic)
	if !ok {
		return Record{}, fmt.Errorf("%w: missing %q header", ErrBadRecord, magic)
	}
	var r Record
	seen := map[string]bool{}
	for rest != "" {
		if rest[0] != ' ' {
			return Record{}, fmt.Errorf("%w: expected space before %q", ErrBadRecord, rest)
		}
		rest = rest[1:]
		eq := strings.IndexByte(rest, '=')
		if eq <= 0 {
			return Record{}, fmt.Errorf("%w: expected key=value at %q", ErrBadRecord, rest)
		}
		key := rest[:eq]
		rest = rest[eq+1:]
		if seen[key] {
			return Record{}, fmt.Errorf("%w: duplicate key %q", ErrBadRecord, key)
		}
		seen[key] = true
		var val string
		if strings.HasPrefix(rest, `"`) {
			quoted, err := strconv.QuotedPrefix(rest)
			if err != nil {
				return Record{}, fmt.Errorf("%w: unterminated quote in %q", ErrBadRecord, key)
			}
			val, err = strconv.Unquote(quoted)
			if err != nil {
				return Record{}, fmt.Errorf("%w: bad quoting in %q", ErrBadRecord, key)
			}
			rest = rest[len(quoted):]
		} else {
			end := strings.IndexByte(rest, ' ')
			if end < 0 {
				end = len(rest)
			}
			val, rest = rest[:end], rest[end:]
		}
		switch key {
		case "token":
			tok, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return Record{}, fmt.Errorf("%w: token %q", ErrBadRecord, val)
			}
			r.Token = tok
		case "owner":
			r.Owner = val
		case "unit":
			r.Unit = val
		case "expires":
			ns, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return Record{}, fmt.Errorf("%w: expires %q", ErrBadRecord, val)
			}
			r.Expires = ns
		case "dur":
			ns, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return Record{}, fmt.Errorf("%w: dur %q", ErrBadRecord, val)
			}
			r.Dur = ns
		case "err":
			r.Err = val
		default:
			return Record{}, fmt.Errorf("%w: unknown key %q", ErrBadRecord, key)
		}
	}
	for _, req := range []string{"token", "owner", "unit", "expires"} {
		if !seen[req] {
			return Record{}, fmt.Errorf("%w: missing %q", ErrBadRecord, req)
		}
	}
	// The zero token is reserved for non-distributed (tokenless) journal
	// records; a lease claiming it could never win a merge.
	if r.Token == 0 {
		return Record{}, fmt.Errorf("%w: token 0 is reserved", ErrBadRecord)
	}
	return r, nil
}

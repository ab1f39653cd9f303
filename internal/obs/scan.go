package obs

import (
	"io"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// This file is ReadTrace's JSON scanner: a single pass over the stream
// in 64 KiB reads that checks syntax while it decodes each trace event
// into a rawEvent, following encoding/json's rules for that struct so
// the reader accepts, rejects and fills exactly what json.Unmarshal
// would:
//
//   - a key matches a field exactly or, failing that, under the case
//     folding of bytes.EqualFold ("NAME" and "tſ" match name and ts);
//     unknown keys are skipped, their values still syntax-checked;
//   - null leaves a field unchanged, and the last duplicate key wins;
//   - a value of the wrong JSON type, an integer field given a fraction
//     or an out-of-range number, makes the whole event invalid;
//   - strings decode invalid UTF-8 and lone surrogates to U+FFFD;
//   - nesting deeper than encoding/json's limit is a syntax error.
//
// Bytes handed out by the scanner are valid only until its next read,
// so every string is matched, interned or parsed before scanning on.

const (
	readSize = 64 << 10 // bytes requested per read
	maxDepth = 10000    // encoding/json's nesting limit
)

// scanner reads one trace document from r.
type scanner struct {
	r        io.Reader
	buf      []byte // buf[pos:] is unread input
	pos      int
	eof      bool  // r has nothing more to give
	err      error // r's error, when it was not io.EOF
	unquoted []byte
	names    map[string]string // interned labels
}

func newScanner(r io.Reader) *scanner {
	return &scanner{r: r, buf: make([]byte, 0, readSize), names: map[string]string{}}
}

// fill moves buf[keep:] to the front of the buffer and reads more
// input after it, so positions held by the caller drop by keep, read
// or not. It reports whether any byte was added.
func (s *scanner) fill(keep int) bool {
	n := copy(s.buf, s.buf[keep:])
	s.buf = s.buf[:n]
	s.pos -= keep
	if s.eof {
		return false
	}
	if cap(s.buf)-n < readSize/2 {
		// A token longer than half the buffer is still open.
		grown := make([]byte, n, 2*cap(s.buf))
		copy(grown, s.buf)
		s.buf = grown
	}
	for tries := 0; tries < 100; tries++ {
		m, err := s.r.Read(s.buf[n:cap(s.buf)])
		s.buf = s.buf[:n+m]
		if err != nil {
			s.eof = true
			if err != io.EOF {
				s.err = err
			}
		}
		if m > 0 || s.eof {
			return m > 0
		}
	}
	s.eof, s.err = true, io.ErrNoProgress
	return false
}

// cur returns the byte at pos without consuming it; ok is false at the
// end of input.
func (s *scanner) cur() (c byte, ok bool) {
	if s.pos == len(s.buf) && !s.fill(s.pos) {
		return 0, false
	}
	return s.buf[s.pos], true
}

// peek skips whitespace and returns the next byte without consuming it.
func (s *scanner) peek() (c byte, ok bool) {
	if s.pos < len(s.buf) && s.buf[s.pos] > ' ' {
		return s.buf[s.pos], true
	}
	for {
		for ; s.pos < len(s.buf); s.pos++ {
			switch c = s.buf[s.pos]; c {
			case ' ', '\t', '\n', '\r':
			default:
				return c, true
			}
		}
		if !s.fill(s.pos) {
			return 0, false
		}
	}
}

// literal consumes word (true, false or null) or reports false.
func (s *scanner) literal(word string) bool {
	for i := 0; i < len(word); i++ {
		if c, ok := s.cur(); !ok || c != word[i] {
			return false
		}
		s.pos++
	}
	return true
}

// scanString consumes the string whose opening quote is at pos and
// returns its raw contents; decode is set when they hold escapes or
// non-ASCII bytes.
func (s *scanner) scanString() (raw []byte, decode, ok bool) {
	start, i := s.pos, s.pos+1
	esc, hex := false, 0
	for {
		if !esc && hex == 0 {
			for i < len(s.buf) && plainByte(s.buf[i]) {
				i++
			}
		}
		if i == len(s.buf) {
			n := i - start
			if !s.fill(start) {
				return nil, false, false
			}
			start, i = 0, n
			continue
		}
		c := s.buf[i]
		switch {
		case hex > 0:
			if !isHex(c) {
				return nil, false, false
			}
			hex--
		case esc:
			esc = false
			switch c {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				hex = 4
			default:
				return nil, false, false
			}
		case c == '"':
			s.pos = i + 1
			return s.buf[start+1 : i], decode, true
		case c == '\\':
			esc, decode = true, true
		case c < ' ':
			return nil, false, false
		default: // c >= utf8.RuneSelf
			decode = true
		}
		i++
	}
}

// plainByte reports whether c stands for itself inside a string.
func plainByte(c byte) bool {
	return c >= ' ' && c < utf8.RuneSelf && c != '"' && c != '\\'
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// text scans a string and returns its decoded bytes.
func (s *scanner) text() ([]byte, bool) {
	raw, decode, ok := s.scanString()
	if !ok || !decode {
		return raw, ok
	}
	s.unquoted = unquote(s.unquoted[:0], raw)
	return s.unquoted, true
}

// unquote appends the decoded form of a syntactically valid string's
// contents to b, as encoding/json decodes it.
func unquote(b, raw []byte) []byte {
	for r := 0; r < len(raw); {
		switch c := raw[r]; {
		case c == '\\':
			switch raw[r+1] {
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				rr := getu4(raw[r:])
				r += 6
				if utf16.IsSurrogate(rr) {
					if dec := utf16.DecodeRune(rr, getu4(raw[r:])); dec != unicode.ReplacementChar {
						b = utf8.AppendRune(b, dec)
						r += 6
						continue
					}
					rr = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, rr)
				continue
			default: // '"', '\\', '/'
				b = append(b, raw[r+1])
			}
			r += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			r++
		default:
			rr, size := utf8.DecodeRune(raw[r:])
			b = utf8.AppendRune(b, rr)
			r += size
		}
	}
	return b
}

// getu4 decodes the \uXXXX escape at the start of s, or returns -1.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// label scans a string and returns it interned.
func (s *scanner) label() (string, bool) {
	b, ok := s.text()
	if !ok {
		return "", false
	}
	if v, hit := s.names[string(b)]; hit {
		return v, true
	}
	v := string(b)
	s.names[v] = v
	return v, true
}

// number consumes the longest run of bytes that can occur in a JSON
// number and reports whether the run is one. A run that only starts
// with a number is rejected outright: the byte after a number must be
// a delimiter, so the value would be malformed anyway.
func (s *scanner) number() ([]byte, bool) {
	start, i := s.pos, s.pos
	for {
		for i < len(s.buf) && numByte(s.buf[i]) {
			i++
		}
		if i < len(s.buf) {
			break
		}
		n := i - start
		more := s.fill(start)
		start, i = 0, n
		if !more {
			break
		}
	}
	s.pos = i
	b := s.buf[start:i]
	return b, validNumber(b)
}

func numByte(c byte) bool {
	return '0' <= c && c <= '9' || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E'
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// validNumber reports whether b is exactly a JSON number:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func validNumber(b []byte) bool {
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		for i < len(b) && isDigit(b[i]) {
			i++
		}
	default:
		return false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if i == len(b) || !isDigit(b[i]) {
			return false
		}
		for i < len(b) && isDigit(b[i]) {
			i++
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i == len(b) || !isDigit(b[i]) {
			return false
		}
		for i < len(b) && isDigit(b[i]) {
			i++
		}
	}
	return i == len(b)
}

// float scans a number into a float64 field.
func (s *scanner) float() (float64, bool) {
	b, ok := s.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(b), 64)
	return f, err == nil
}

// integer scans a number into an integer field of the given bit size,
// accepting what strconv.ParseInt accepts.
func (s *scanner) integer(bits int) (int64, bool) {
	b, ok := s.number()
	if !ok {
		return 0, false
	}
	if digits := b; len(b) < 19 {
		// Up to 18 digits cannot overflow int64: sum them directly.
		if b[0] == '-' {
			digits = b[1:]
		}
		var n int64
		for _, c := range digits {
			if !isDigit(c) {
				return 0, false
			}
			n = n*10 + int64(c-'0')
		}
		if b[0] == '-' {
			n = -n
		}
		return n, bits == 64 || n == int64(int32(n))
	}
	n, err := strconv.ParseInt(string(b), 10, bits)
	return n, err == nil
}

// expect consumes c, after any whitespace, or reports false.
func (s *scanner) expect(c byte) bool {
	if got, ok := s.peek(); !ok || got != c {
		return false
	}
	s.pos++
	return true
}

// delim consumes and returns the next byte after any whitespace, or 0
// at the end of input.
func (s *scanner) delim() byte {
	c, ok := s.peek()
	if !ok {
		return 0
	}
	s.pos++
	return c
}

// skip consumes one JSON value of any type, nested depth containers
// deep.
func (s *scanner) skip(depth int) bool {
	c, ok := s.peek()
	if !ok {
		return false
	}
	switch c {
	case '{', '[':
		if depth++; depth > maxDepth {
			return false
		}
		end := byte('}')
		if c == '[' {
			end = ']'
		}
		s.pos++
		if c, ok := s.peek(); ok && c == end {
			s.pos++
			return true
		}
		for {
			if end == '}' {
				if c, ok := s.peek(); !ok || c != '"' {
					return false
				}
				if _, _, ok := s.scanString(); !ok || !s.expect(':') {
					return false
				}
			}
			if !s.skip(depth) {
				return false
			}
			switch s.delim() {
			case end:
				return true
			case ',':
			default:
				return false
			}
		}
	case '"':
		_, _, ok = s.scanString()
		return ok
	case 't':
		return s.literal("true")
	case 'f':
		return s.literal("false")
	case 'n':
		return s.literal("null")
	}
	_, ok = s.number()
	return ok
}

// field names a rawEvent field the scanner can fill.
type field uint8

const (
	fUnknown field = iota
	fName
	fCat
	fPh
	fTs
	fDur
	fPid
	fTid
	fArgs
	fArgName
	fArgA
	fArgB
)

// Keys of rawEvent and of its args, in field order from fName and
// fArgName.
var (
	eventKeys = []string{"name", "cat", "ph", "ts", "dur", "pid", "tid", "args"}
	argKeys   = []string{"name", "a", "b"}
)

// key scans an object key and resolves it among keys, whose first
// entry is field first.
func (s *scanner) key(keys []string, first field) (field, bool) {
	k, ok := s.text()
	if !ok {
		return fUnknown, false
	}
	// An exact match is a folded match too, and no two keys fold alike,
	// so the folded match is the field encoding/json picks. Writers emit
	// the exact names, so a cheap exact pass settles almost every key
	// and folding runs only on a miss.
	for i, name := range keys {
		if string(k) == name {
			return first + field(i), true
		}
	}
	for i, name := range keys {
		if equalFold(k, name) {
			return first + field(i), true
		}
	}
	return fUnknown, true
}

// equalFold reports whether key equals the lower-case ASCII name under
// the simple case folding encoding/json matches keys with.
func equalFold(key []byte, name string) bool {
	if len(key) < len(name) {
		return false // folding maps no rune to a longer encoding
	}
	i := 0
	for j := 0; j < len(name); j++ {
		if i == len(key) {
			return false
		}
		c := key[i]
		if c < utf8.RuneSelf {
			if c|0x20 != name[j] { // name is lower-case letters
				return false
			}
			i++
			continue
		}
		r, size := utf8.DecodeRune(key[i:])
		if foldRune(r) != foldRune(rune(name[j])) {
			return false
		}
		i += size
	}
	return i == len(key)
}

// foldRune returns the smallest rune of r's case-folding orbit.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// element decodes one element of the event array into ev: an object,
// or null, which leaves ev zero. Any other value does not decode into
// an event.
func (s *scanner) element(ev *rawEvent) bool {
	c, ok := s.peek()
	switch {
	case ok && c == '{':
		return s.object(ev, eventKeys, fName, 1)
	case ok && c == 'n':
		return s.literal("null")
	}
	return false
}

// object decodes the members of the object whose '{' is at pos into ev,
// resolving keys among keys (fields from first on); depth counts the
// object itself.
func (s *scanner) object(ev *rawEvent, keys []string, first field, depth int) bool {
	s.pos++
	if c, ok := s.peek(); ok && c == '}' {
		s.pos++
		return true
	}
	for {
		if c, ok := s.peek(); !ok || c != '"' {
			return false
		}
		f, ok := s.key(keys, first)
		if !ok || !s.expect(':') || !s.value(ev, f, depth) {
			return false
		}
		switch s.delim() {
		case '}':
			return true
		case ',':
		default:
			return false
		}
	}
}

// value decodes the value of field f, a member of an object nested
// depth deep.
func (s *scanner) value(ev *rawEvent, f field, depth int) bool {
	if f == fUnknown {
		return s.skip(depth)
	}
	c, ok := s.peek()
	switch {
	case !ok:
		return false
	case c == 'n':
		return s.literal("null")
	case c == '"':
		var dst *string
		switch f {
		case fName:
			dst = &ev.Name
		case fCat:
			dst = &ev.Cat
		case fPh:
			dst = &ev.Ph
		case fArgName:
			dst = &ev.Args.Name
		default:
			return false
		}
		*dst, ok = s.label()
		return ok
	case c == '{':
		return f == fArgs && s.object(ev, argKeys, fArgName, depth+1)
	case c != '-' && (c < '0' || c > '9'):
		return false
	}
	switch f {
	case fTs:
		ev.Ts, ok = s.float()
	case fDur:
		ev.Dur, ok = s.float()
	case fPid:
		ev.Pid, ok = s.integer(64)
	case fTid:
		var n int64
		n, ok = s.integer(32)
		ev.Tid = int32(n)
	case fArgA:
		ev.Args.A, ok = s.integer(64)
	case fArgB:
		ev.Args.B, ok = s.integer(64)
	default:
		return false
	}
	return ok
}

// header consumes the document's opening {"traceEvents":[.
func (s *scanner) header() bool {
	if !s.expect('{') {
		return false
	}
	if c, ok := s.peek(); !ok || c != '"' {
		return false
	}
	k, ok := s.text()
	return ok && string(k) == "traceEvents" && s.expect(':') && s.expect('[')
}

// trailer consumes what follows the event array: ']' and then '}', or
// ',' and a valid string (the next key). Nothing after that is read.
func (s *scanner) trailer() bool {
	if s.delim() != ']' {
		return false
	}
	switch s.delim() {
	case '}':
		return true
	case ',':
		if c, ok := s.peek(); !ok || c != '"' {
			return false
		}
		_, _, ok := s.scanString()
		return ok
	}
	return false
}

package trace

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"memfp/internal/dram"
	"memfp/internal/platform"
)

// This file implements the BMC/MCE-style text log codec: the concrete wire
// format of the "Log Collection" stage in the paper's MLOps data pipeline
// (Figure 6). One line per record:
//
//	MEM <time-min> <type> <platform> <server> <slot> <part> rank=R dev=D bank=B row=RW col=C bits=<sig>
//
// UE records omit bits (the payload was lost). Storm records carry only
// time and DIMM identity.

// EncodeEvent renders one event as a BMC log line. The part is needed to
// record the part number alongside the event, as real SEL logs do.
func EncodeEvent(e Event, part platform.DIMMPart) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "MEM %d %s %s %d %d %s",
		int64(e.Time), e.Type, e.DIMM.Platform, e.DIMM.Server, e.DIMM.Slot, part.PartNumber)
	switch e.Type {
	case TypeCE:
		fmt.Fprintf(&sb, " rank=%d dev=%d bank=%d row=%d col=%d bits=%s",
			e.Addr.Rank, e.Addr.Device, e.Addr.Bank, e.Addr.Row, e.Addr.Column,
			strings.ReplaceAll(e.Bits.String(), " ", ","))
	case TypeUE:
		fmt.Fprintf(&sb, " rank=%d dev=%d bank=%d row=%d col=%d",
			e.Addr.Rank, e.Addr.Device, e.Addr.Bank, e.Addr.Row, e.Addr.Column)
	case TypeStorm:
		// identity only
	}
	return sb.String()
}

// DecodeEvent parses one BMC log line produced by EncodeEvent. It returns
// the event and the part number recorded on the line. An address that
// does not pack into a cell ID (dram.Addr.CheckFits) is refused.
func DecodeEvent(line string) (Event, string, error) {
	fields := strings.Fields(line)
	if len(fields) < 7 || fields[0] != "MEM" {
		return Event{}, "", fmt.Errorf("trace: malformed log line %q", line)
	}
	var e Event
	var t int64
	if _, err := fmt.Sscanf(fields[1], "%d", &t); err != nil {
		return Event{}, "", fmt.Errorf("trace: bad timestamp in %q: %w", line, err)
	}
	e.Time = Minutes(t)
	switch fields[2] {
	case "CE":
		e.Type = TypeCE
	case "UE":
		e.Type = TypeUE
	case "CE_STORM":
		e.Type = TypeStorm
	default:
		return Event{}, "", fmt.Errorf("trace: unknown event type %q", fields[2])
	}
	e.DIMM.Platform = platform.ID(fields[3])
	if _, err := fmt.Sscanf(fields[4], "%d", &e.DIMM.Server); err != nil {
		return Event{}, "", fmt.Errorf("trace: bad server in %q: %w", line, err)
	}
	if _, err := fmt.Sscanf(fields[5], "%d", &e.DIMM.Slot); err != nil {
		return Event{}, "", fmt.Errorf("trace: bad slot in %q: %w", line, err)
	}
	partNumber := fields[6]

	kv := map[string]string{}
	for _, f := range fields[7:] {
		eq := strings.IndexByte(f, '=')
		if eq < 0 {
			return Event{}, "", fmt.Errorf("trace: bad key=value field %q", f)
		}
		kv[f[:eq]] = f[eq+1:]
	}
	if e.Type == TypeCE || e.Type == TypeUE {
		for _, key := range []string{"rank", "dev", "bank", "row", "col"} {
			v, ok := kv[key]
			if !ok {
				return Event{}, "", fmt.Errorf("trace: missing %s in %q", key, line)
			}
			var n int
			if _, err := fmt.Sscanf(v, "%d", &n); err != nil {
				return Event{}, "", fmt.Errorf("trace: bad %s in %q: %w", key, line, err)
			}
			switch key {
			case "rank":
				e.Addr.Rank = n
			case "dev":
				e.Addr.Device = n
			case "bank":
				e.Addr.Bank = n
			case "row":
				e.Addr.Row = n
			case "col":
				e.Addr.Column = n
			}
		}
		if err := e.Addr.CheckFits(); err != nil {
			return Event{}, "", fmt.Errorf("trace: %w in %q", err, line)
		}
	}
	if e.Type == TypeCE {
		sig, ok := kv["bits"]
		if !ok {
			return Event{}, "", fmt.Errorf("trace: CE line missing bits in %q", line)
		}
		part, err := platform.PartByNumber(partNumber)
		if err != nil {
			return Event{}, "", err
		}
		bitsSig, err := dram.ParseErrorBits(part.Width, strings.ReplaceAll(sig, ",", " "))
		if err != nil {
			return Event{}, "", err
		}
		e.Bits = bitsSig
	}
	return e, partNumber, nil
}

// WriteStore serializes all events in the store to w, time-ordered within
// each DIMM, DIMMs in registration order.
func WriteStore(w io.Writer, s *Store) error {
	bw := bufio.NewWriter(w)
	for _, l := range s.DIMMs() {
		for _, e := range l.Events {
			if _, err := fmt.Fprintln(bw, EncodeEvent(e, l.Part)); err != nil {
				return fmt.Errorf("trace: write: %w", err)
			}
		}
	}
	return bw.Flush()
}

// ReadStore parses a log stream back into a store. DIMMs are registered on
// first sight using the part number recorded on the line.
func ReadStore(r io.Reader) (*Store, error) {
	s := NewStore()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		e, pn, err := DecodeEvent(line)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		if s.Get(e.DIMM) == nil {
			part, err := platform.PartByNumber(pn)
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
			}
			if _, err := s.Register(e.DIMM, part); err != nil {
				return nil, err
			}
		}
		if err := s.Append(e); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: scan: %w", err)
	}
	s.SortAll()
	return s, nil
}

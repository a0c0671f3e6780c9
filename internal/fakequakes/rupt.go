package fakequakes

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"fdw/internal/geom"
)

// MudPy stores each rupture scenario as a whitespace-delimited ".rupt"
// text file, one row per subfault:
//
//	no  lon  lat  z(km)  strike  dip  rise(s)  dura(s)  ss-slip(m)  ds-slip(m)  rupt_time(s)  rigidity(Pa)
//
// Rows for subfaults outside the rupture patch carry zero slip. This
// codec writes and reads that format so FDW products are drop-in
// compatible with MudPy tooling.

// WriteRupt encodes r on fault f in MudPy .rupt layout. All slip is
// written as dip-slip (the megathrust convention FakeQuakes uses).
func WriteRupt(w io.Writer, f *geom.Fault, r *Rupture) error {
	if f == nil || r == nil {
		return fmt.Errorf("fakequakes: nil fault or rupture")
	}
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# FakeQuakes rupture %s  Mw %.4f  hypocenter subfault %d\n",
		r.ID, r.ActualMw, r.Hypocenter); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(bw, "# no\tlon\tlat\tz(km)\tstrike\tdip\trise\tdura\tss-slip(m)\tds-slip(m)\trupt_time(s)\trigidity(Pa)"); err != nil {
		return err
	}
	// Patch lookup: subfault index → position in r.Patch.
	inPatch := make(map[int]int, len(r.Patch))
	for k, idx := range r.Patch {
		inPatch[idx] = k
	}
	for i := range f.Subfaults {
		sf := &f.Subfaults[i]
		slip, onset, rise := 0.0, 0.0, 0.0
		if k, ok := inPatch[i]; ok {
			slip = r.SlipM[k]
			onset = r.OnsetS[k]
			rise = r.RiseS[k]
		}
		_, err := fmt.Fprintf(bw, "%d\t%.6f\t%.6f\t%.4f\t%.2f\t%.2f\t%.4f\t%.4f\t%.6f\t%.6f\t%.4f\t%.4e\n",
			i+1, sf.Center.Lon, sf.Center.Lat, sf.DepthKm, sf.StrikeDeg, sf.DipDeg,
			rise, rise, 0.0, slip, onset, ShearModulusPa)
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadRupt decodes a .rupt stream written by WriteRupt (or by MudPy,
// for files with the same column layout). It reconstructs the rupture
// patch from the rows with non-zero total slip; the fault provides the
// subfault count for validation. A repeated subfault row, a non-finite
// slip, rise or rupture time, or a negative rise or rupture time is an
// error naming the line and column: SynthesizeWaveforms would reject
// the patch anyway, and naming the line is what lets a user fix it.
//
//lint:allow deadexport .rupt reader; file format kept for the ROADMAP emit→parse item, which gives it a production caller
func ReadRupt(rd io.Reader, f *geom.Fault) (*Rupture, error) {
	if f == nil {
		return nil, fmt.Errorf("fakequakes: nil fault")
	}
	sc := bufio.NewScanner(rd)
	sc.Buffer(nil, 1024*1024) // grows on demand up to a 1 MiB line
	r := &Rupture{ID: "rupt"}
	lineNo := 0
	rows := 0
	firstLine := make([]int, f.NumSubfaults()) // subfault → its row's line
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			// Recover metadata from our own header when present.
			if strings.Contains(line, "FakeQuakes rupture") {
				fields := strings.Fields(line)
				for i, tok := range fields {
					if tok == "rupture" && i+1 < len(fields) {
						r.ID = fields[i+1]
					}
					if tok == "Mw" && i+1 < len(fields) {
						if v, err := strconv.ParseFloat(fields[i+1], 64); err == nil {
							r.TargetMw = v
							r.ActualMw = v
						}
					}
					if tok == "subfault" && i+1 < len(fields) {
						if v, err := strconv.Atoi(fields[i+1]); err == nil {
							r.Hypocenter = v
						}
					}
				}
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 12 {
			return nil, fmt.Errorf("fakequakes: .rupt line %d has %d columns, want 12", lineNo, len(fields))
		}
		no, err := strconv.Atoi(fields[0])
		if err != nil || no < 1 {
			return nil, fmt.Errorf("fakequakes: .rupt line %d: bad subfault number %q", lineNo, fields[0])
		}
		idx := no - 1
		if idx >= f.NumSubfaults() {
			return nil, fmt.Errorf("fakequakes: .rupt line %d: subfault %d outside fault of %d", lineNo, no, f.NumSubfaults())
		}
		if prev := firstLine[idx]; prev != 0 {
			return nil, fmt.Errorf("fakequakes: .rupt line %d column 1: subfault %d repeats line %d", lineNo, no, prev)
		}
		firstLine[idx] = lineNo
		num := func(col int) (float64, error) {
			v, err := strconv.ParseFloat(fields[col], 64)
			if err != nil {
				return 0, fmt.Errorf("fakequakes: .rupt line %d column %d: %v", lineNo, col+1, err)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0, fmt.Errorf("fakequakes: .rupt line %d column %d: non-finite value %q", lineNo, col+1, fields[col])
			}
			return v, nil
		}
		nonNegative := func(col int) (float64, error) {
			v, err := num(col)
			if err == nil && v < 0 {
				err = fmt.Errorf("fakequakes: .rupt line %d column %d: negative time %v s", lineNo, col+1, v)
			}
			return v, err
		}
		ss, err := num(8)
		if err != nil {
			return nil, err
		}
		ds, err := num(9)
		if err != nil {
			return nil, err
		}
		rise, err := nonNegative(6)
		if err != nil {
			return nil, err
		}
		onset, err := nonNegative(10)
		if err != nil {
			return nil, err
		}
		rows++
		slip := ss + ds
		if math.IsInf(slip, 0) {
			return nil, fmt.Errorf("fakequakes: .rupt line %d columns 9-10: total slip overflows", lineNo)
		}
		if slip == 0 {
			continue
		}
		r.Patch = append(r.Patch, idx)
		r.SlipM = append(r.SlipM, slip)
		r.OnsetS = append(r.OnsetS, onset)
		r.RiseS = append(r.RiseS, rise)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if rows == 0 {
		return nil, fmt.Errorf("fakequakes: empty .rupt file")
	}
	if len(r.Patch) == 0 {
		return nil, fmt.Errorf("fakequakes: .rupt has no slipping subfaults")
	}
	return r, nil
}

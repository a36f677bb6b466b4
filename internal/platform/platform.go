// Package platform describes the three CPU platforms the paper compares —
// Intel Purley (Skylake / Cascade Lake), Intel Whitley (Icelake), and the
// Huawei ARM K920 — together with the DIMM part catalog used to populate
// simulated fleets. A Platform binds a CPU architecture to an ECC model
// (the property the paper identifies as the driver of cross-platform
// differences) and to fleet-level population parameters.
package platform

import (
	"fmt"
	"strings"

	"memfp/internal/dram"
	"memfp/internal/ecc"
)

// Arch is a CPU instruction-set architecture.
type Arch string

// Supported architectures.
const (
	X86 Arch = "x86"
	ARM Arch = "arm"
)

// ID identifies one of the studied platforms.
type ID string

// The three platforms of the study.
const (
	Purley  ID = "Intel_Purley"
	Whitley ID = "Intel_Whitley"
	K920    ID = "K920"
)

// All lists the platforms in the paper's presentation order.
func All() []ID { return []ID{Purley, Whitley, K920} }

// Short is the name the paper's text uses: Purley, Whitley, K920.
func (id ID) Short() string { return strings.TrimPrefix(string(id), "Intel_") }

// Platform is a full platform descriptor.
type Platform struct {
	ID       ID
	Arch     Arch
	CPUNames []string // microarchitectures covered by the platform
	ECC      ecc.Code
	// ChannelsPerSocket and DIMMsPerChannel bound the DIMM topology used
	// when laying out simulated servers.
	ChannelsPerSocket int
	DIMMsPerChannel   int
	Sockets           int
}

// String implements fmt.Stringer.
func (p *Platform) String() string {
	return fmt.Sprintf("%s(%s, %s)", p.ID, p.Arch, p.ECC.Name())
}

// Get returns the descriptor for a platform ID.
func Get(id ID) (*Platform, error) {
	switch id {
	case Purley:
		return &Platform{
			ID:                Purley,
			Arch:              X86,
			CPUNames:          []string{"Skylake", "Cascade Lake"},
			ECC:               ecc.NewPurleySDDC(),
			ChannelsPerSocket: 6,
			DIMMsPerChannel:   2,
			Sockets:           2,
		}, nil
	case Whitley:
		return &Platform{
			ID:                Whitley,
			Arch:              X86,
			CPUNames:          []string{"Icelake"},
			ECC:               ecc.NewWhitleySDDC(),
			ChannelsPerSocket: 8,
			DIMMsPerChannel:   2,
			Sockets:           2,
		}, nil
	case K920:
		return &Platform{
			ID:                K920,
			Arch:              ARM,
			CPUNames:          []string{"K920"},
			ECC:               ecc.K920SDDC{},
			ChannelsPerSocket: 8,
			DIMMsPerChannel:   2,
			Sockets:           2,
		}, nil
	default:
		return nil, fmt.Errorf("platform: unknown platform %q (want one of %v)", id, All())
	}
}

// MustGet is Get for known-constant IDs; it panics on error.
func MustGet(id ID) *Platform {
	p, err := Get(id)
	if err != nil {
		panic(err)
	}
	return p
}

// Manufacturer is a DRAM vendor. Vendor names are anonymized letters as is
// conventional in field studies (and in the paper's upstream work).
type Manufacturer string

// Anonymized DRAM manufacturers.
const (
	VendorA Manufacturer = "A"
	VendorB Manufacturer = "B"
	VendorC Manufacturer = "C"
	VendorD Manufacturer = "D"
)

// DIMMPart is a catalog entry: the static attributes the paper uses as
// model features (manufacturer, data width, frequency, chip process).
type DIMMPart struct {
	PartNumber   string
	Manufacturer Manufacturer
	Width        dram.Width
	SpeedMTs     int // data rate in MT/s
	ProcessNm    int // chip process node (nm)
	CapacityGiB  int
	Geometry     dram.Geometry
}

// Catalog returns the fixed DIMM part catalog used to populate fleets.
// Parts span vendors, widths, speeds and process nodes so the static
// features carry real variance.
func Catalog() []DIMMPart {
	mk := func(pn string, m Manufacturer, w dram.Width, speed, nm, cap int) DIMMPart {
		return DIMMPart{
			PartNumber:   pn,
			Manufacturer: m,
			Width:        w,
			SpeedMTs:     speed,
			ProcessNm:    nm,
			CapacityGiB:  cap,
			Geometry:     dram.DefaultGeometry(w),
		}
	}
	return []DIMMPart{
		mk("A4-2666-32", VendorA, dram.X4, 2666, 20, 32),
		mk("A4-2933-32", VendorA, dram.X4, 2933, 18, 32),
		mk("A8-2666-16", VendorA, dram.X8, 2666, 20, 16),
		mk("B4-2666-32", VendorB, dram.X4, 2666, 19, 32),
		mk("B4-3200-64", VendorB, dram.X4, 3200, 17, 64),
		mk("B8-2933-16", VendorB, dram.X8, 2933, 18, 16),
		mk("C4-2933-32", VendorC, dram.X4, 2933, 18, 32),
		mk("C4-3200-64", VendorC, dram.X4, 3200, 16, 64),
		mk("D4-2666-32", VendorD, dram.X4, 2666, 21, 32),
		mk("D4-3200-32", VendorD, dram.X4, 3200, 17, 32),
	}
}

// PartByNumber looks up a part in the catalog.
func PartByNumber(pn string) (DIMMPart, error) {
	for _, p := range Catalog() {
		if p.PartNumber == pn {
			return p, nil
		}
	}
	return DIMMPart{}, fmt.Errorf("platform: unknown part number %q", pn)
}

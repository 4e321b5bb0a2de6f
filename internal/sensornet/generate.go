package sensornet

import (
	"fmt"
	"math"

	"uavdc/internal/geom"
	"uavdc/internal/rng"
)

// GenParams controls random network generation. The zero value is not
// usable; start from DefaultGenParams.
type GenParams struct {
	// NumSensors is the number of aggregate sensor nodes (|V|).
	NumSensors int
	// Side is the edge length of the square monitoring region in metres.
	Side float64
	// DataMin and DataMax bound the uniform stored-volume distribution in
	// MB.
	DataMin, DataMax float64
	// Bandwidth is the uplink rate in MB/s.
	Bandwidth float64
	// CommRange is the node radio range R in metres.
	CommRange float64
	// DepotAtCenter places the depot at the region centre when true,
	// otherwise at the region origin corner.
	DepotAtCenter bool
}

// DefaultGenParams returns the paper's experimental setting: 500 nodes in a
// 1000 m × 1000 m region, D_v ~ U[100, 1000] MB, B = 150 MB/s, and a 50 m
// coverage/communication radius.
func DefaultGenParams() GenParams {
	return GenParams{
		NumSensors:    500,
		Side:          1000,
		DataMin:       100,
		DataMax:       1000,
		Bandwidth:     150,
		CommRange:     50,
		DepotAtCenter: true,
	}
}

// Validate checks the parameters.
func (p GenParams) Validate() error {
	switch {
	case p.NumSensors < 0:
		return fmt.Errorf("sensornet: negative sensor count %d", p.NumSensors)
	case !(p.Side > 0):
		return fmt.Errorf("sensornet: region side must be positive, got %v", p.Side)
	case p.DataMin < 0 || p.DataMax < p.DataMin:
		return fmt.Errorf("sensornet: invalid data range [%v, %v]", p.DataMin, p.DataMax)
	case !(p.Bandwidth > 0):
		return fmt.Errorf("sensornet: bandwidth must be positive, got %v", p.Bandwidth)
	case !(p.CommRange > 0):
		return fmt.Errorf("sensornet: comm range must be positive, got %v", p.CommRange)
	}
	return nil
}

// Generate builds a random network: sensors uniform in the region, stored
// volumes uniform in [DataMin, DataMax].
func Generate(p GenParams, src rng.Source) (*Network, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	r := src.Rand()
	region := geom.Square(p.Side)
	net := &Network{
		Region:    region,
		Bandwidth: p.Bandwidth,
		CommRange: p.CommRange,
		Sensors:   make([]Sensor, p.NumSensors),
	}
	if p.DepotAtCenter {
		net.Depot = region.Center()
	} else {
		net.Depot = region.Min
	}
	for i := range net.Sensors {
		net.Sensors[i] = Sensor{
			Pos:  geom.Pt(r.Float64()*p.Side, r.Float64()*p.Side),
			Data: rng.Uniform(r, p.DataMin, p.DataMax),
		}
	}
	return net, nil
}

// ClusterParams shapes GenerateClustered.
type ClusterParams struct {
	// GenParams carries the base field parameters.
	GenParams
	// NumClusters is the number of deployment hot spots (≥ 1).
	NumClusters int //uavdc:allow deadexport a parameter of the GenerateClustered test oracle
	// ClusterRadius is the spread of sensors around their hot spot, in
	// metres.
	ClusterRadius float64 //uavdc:allow deadexport a parameter of the GenerateClustered test oracle
}

// GenerateClustered builds a Matérn-style clustered deployment: NumClusters
// parent locations drawn uniformly, each sensor attached to a uniformly
// chosen parent and offset uniformly within ClusterRadius (clamped into
// the region). The paper evaluates only uniform fields; clustered fields
// are the natural robustness check — hovering locations cover many sensors
// at once inside a cluster and almost none between clusters, stressing
// both the coverage model and the tour planner.
//
//uavdc:allow deadexport test oracle: the core clustered-field tests build their deployments with it
func GenerateClustered(p ClusterParams, src rng.Source) (*Network, error) {
	if err := p.GenParams.Validate(); err != nil {
		return nil, err
	}
	if p.NumClusters < 1 {
		return nil, fmt.Errorf("sensornet: need at least one cluster, got %d", p.NumClusters)
	}
	if !(p.ClusterRadius > 0) {
		return nil, fmt.Errorf("sensornet: cluster radius must be positive, got %v", p.ClusterRadius)
	}
	r := src.Rand()
	region := geom.Square(p.Side)
	parents := make([]geom.Point, p.NumClusters)
	for i := range parents {
		parents[i] = geom.Pt(r.Float64()*p.Side, r.Float64()*p.Side)
	}
	net := &Network{
		Region:    region,
		Bandwidth: p.Bandwidth,
		CommRange: p.CommRange,
		Sensors:   make([]Sensor, p.NumSensors),
	}
	if p.DepotAtCenter {
		net.Depot = region.Center()
	} else {
		net.Depot = region.Min
	}
	for i := range net.Sensors {
		parent := parents[r.Intn(p.NumClusters)]
		// Uniform offset in the disk via rejection (bounded iterations in
		// expectation; clamp keeps the worst case in-region).
		pos := parent
		for try := 0; try < 16; try++ {
			dx := (2*r.Float64() - 1) * p.ClusterRadius
			dy := (2*r.Float64() - 1) * p.ClusterRadius
			if dx*dx+dy*dy <= p.ClusterRadius*p.ClusterRadius {
				pos = geom.Pt(parent.X+dx, parent.Y+dy)
				break
			}
		}
		net.Sensors[i] = Sensor{
			Pos:  region.Clamp(pos),
			Data: rng.Uniform(r, p.DataMin, p.DataMax),
		}
	}
	return net, nil
}

// DeviceField is the finer-grained layer beneath the aggregate network: the
// plain IoT devices that forward their sensing data to aggregate nodes
// (Section III-A). It exists to derive realistic, spatially correlated D_v
// values instead of drawing them i.i.d.
type DeviceField struct {
	// Positions of the non-aggregate devices.
	Positions []geom.Point
	// Rates are per-device data generation rates in MB per collection
	// period.
	Rates []float64
	// AssignedTo[i] is the aggregate sensor index device i forwards to,
	// or -1 when no aggregate node is within radio range (that device's
	// data is lost — the paper's motivation for dense-enough aggregate
	// selection).
	AssignedTo []int
}

// GenerateWithDevices builds an aggregate network whose stored volumes are
// the sum of an own-sensing baseline plus the rates of the devices that
// forward to each aggregate node (each device picks the nearest aggregate
// node within CommRange, as §III-A allows). It returns the network and the
// device field for inspection.
func GenerateWithDevices(p GenParams, devicesPerSensor int, ownBase float64, src rng.Source) (*Network, *DeviceField, error) {
	if devicesPerSensor < 0 {
		return nil, nil, fmt.Errorf("sensornet: negative device multiplier %d", devicesPerSensor)
	}
	net, err := Generate(p, src.Split("aggregates"))
	if err != nil {
		return nil, nil, err
	}
	for i := range net.Sensors {
		net.Sensors[i].Data = ownBase
	}
	r := src.Split("devices").Rand()
	nd := devicesPerSensor * p.NumSensors
	field := &DeviceField{
		Positions:  make([]geom.Point, nd),
		Rates:      make([]float64, nd),
		AssignedTo: make([]int, nd),
	}
	perDeviceMax := 0.0
	if p.NumSensors > 0 {
		perDeviceMax = (p.DataMax - p.DataMin) / math.Max(float64(devicesPerSensor), 1)
	}
	idx := net.Index()
	for i := 0; i < nd; i++ {
		pos := geom.Pt(r.Float64()*p.Side, r.Float64()*p.Side)
		field.Positions[i] = pos
		field.Rates[i] = r.Float64() * perDeviceMax
		nearest, d := idx.Nearest(pos)
		if nearest >= 0 && d <= p.CommRange {
			field.AssignedTo[i] = nearest
			net.Sensors[nearest].Data += field.Rates[i]
		} else {
			field.AssignedTo[i] = -1
		}
	}
	return net, field, nil
}

"""fracscale: stochastic fracture networks upscaled to octree continuum meshes,
with steady Darcy flow and tracer transport on the result."""

from .flow import FlowBC, FlowField, effective_permeability, solve_steady_flow
from .geometry import Box
from .network import (
    FractureNetwork,
    GenerationParams,
    aperture_from_radius,
    critical_fracture_count,
    fracture_intensity,
    generate_network,
    load_network,
    make_rng,
    percolation_parameter,
    sample_orientation,
    sample_radius,
    save_network,
)
from .octree import (
    MeshParams,
    OctreeMesh,
    build_face_adjacency,
    build_initial_grid,
    build_mesh,
    equivalent_hex_count,
    refine,
    tag_fracture_cells,
    write_vtk,
)
from .pipeline import RunConfig, load_config, report_tables, run_pipeline, save_config
from .topology import (
    FalseConnectionReport,
    IntersectionGraph,
    build_intersection_graph,
    count_false_connections,
    dfn_percolates,
    mesh_percolates,
    remove_isolated,
)
from .transport import (
    BreakthroughCurve,
    TracerParams,
    decay_constant,
    initialize_pulse,
    normalize_btc,
    run_transport,
    step_transport,
)
from .upscale import PropertyField, spectral_radius, transformation_tensor, upscale_mesh

__version__ = "0.1.0"

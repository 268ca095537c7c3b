"""Structured hexahedral meshes with conformal, node-split fault surfaces.

`build_structured_domain` builds a logically structured (i, j, k) lattice,
shears whole node columns so dipping surfaces stay exact cell-face unions,
splits nodes across each fault surface, and emits one quadrilateral
interface facet per fault face, carrying the local traction frame used by
the contact formulation.  Each step is index arithmetic on the lattice, one
array pass per fault:

- Nodes and cells are numbered i fastest, then j, then k.  A cell's eight
  corners are the ``_HEX_CORNERS`` offsets of its own (i, j, k).
- Split rule.  A fault lies in one lattice plane and covers the faces
  [u0, u1) x [k0, k1), with u the lateral index (j for an x fault, i for a
  y fault) and k the layer.  Its lattice corner (u, k) splits when u > u0
  or u == 0, and u < u1 or u == n_u, and the same holds in k against nz:
  every in-domain face of the plane that touches the corner is a fault
  face.  Tip and junction corners stay shared; a fault edge on the
  domain's outer face splits.
- At a split corner, the cells that share one node id and lie on both
  sides of the plane give their plus-side cells one new node.  A node an
  earlier fault split is split again per group, so two crossing faults
  leave four copies on their junction line.  New nodes copy the
  coordinates and lattice indices of the node they came from.
- Facets are read from the final connectivity.  Facet (u, k) of a fault
  has index base + (u - u0)(k1 - k0) + (k - k0); its edges join it to its
  u- and k-neighbours.

Solver checkpoints fingerprint these arrays, so the numbering must not move
by accident: tests/test_mesh.py pins a digest of it.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

__all__ = [
    "AxisSegment",
    "DomainSpec",
    "FaultSpec",
    "InterfaceSet",
    "Mesh",
    "MeshError",
    "build_axis",
    "build_structured_domain",
    "dissection_order",
    "geometric_sizes",
    "local_frame",
    "mirror_maps",
]

_GEOM_TOL = 1e-6


class MeshError(ValueError):
    """Raised for inconsistent domain, axis, or fault descriptions."""


@dataclass(frozen=True)
class AxisSegment:
    """One graded band of an axis partition.

    ``mode`` is "uniform" (equal cells at size <= h) or "geometric"
    (cells grow away from the refined end at a bounded ratio).
    """

    start: float
    end: float
    mode: str
    h: float
    grow_from: str = "start"
    ratio_max: float = 1.5

    def __post_init__(self):
        if not self.end > self.start:
            raise MeshError(f"segment end {self.end} must exceed start {self.start}")
        if self.mode not in ("uniform", "geometric"):
            raise MeshError(f"unknown segment mode {self.mode!r}")
        if not self.h > 0.0:
            raise MeshError("segment target size must be positive")
        if self.grow_from not in ("start", "end"):
            raise MeshError(f"grow_from must be 'start' or 'end', got {self.grow_from!r}")
        if not self.ratio_max > 1.0:
            raise MeshError("ratio_max must exceed 1")


@dataclass(frozen=True)
class FaultSpec:
    """A rectangular fault surface aligned with one lattice plane.

    ``position`` is the in-plane coordinate at ``shear_anchor_z``; a nonzero
    ``dip_deg`` tilts the surface from vertical, through the domain's
    ``shear_profile``, and is only supported for surfaces whose plane axis
    is x.
    """

    name: str
    axis: str
    position: float
    lateral_min: float
    lateral_max: float
    z_min: float
    z_max: float
    dip_deg: float = 0.0

    def __post_init__(self):
        if self.axis not in ("x", "y"):
            raise MeshError(f"fault axis must be 'x' or 'y', got {self.axis!r}")
        if self.axis == "y" and self.dip_deg != 0.0:
            raise MeshError("dipping surfaces are only supported on the x axis")
        if not self.lateral_max > self.lateral_min:
            raise MeshError(f"fault {self.name}: empty lateral range")
        if not self.z_max > self.z_min:
            raise MeshError(f"fault {self.name}: empty depth range")
        if abs(self.dip_deg) >= 90.0:
            raise MeshError(f"fault {self.name}: dip must lie in (-90, 90) degrees")


@dataclass
class DomainSpec:
    """Axis partitions, fault surfaces, and region tagging for one domain.

    Axis fields accept either a list of :class:`AxisSegment` or a ready-made
    ascending breakpoint array. ``shear_profile`` is the callable x -> dx/dz
    that shears each node column, evaluated per x gridline; it must
    reproduce each x fault's dip at its trace. Without it the columns stay
    vertical, so every x fault must have zero dip."""

    x_segments: object
    y_segments: object
    z_segments: object
    faults: list = field(default_factory=list)
    shear_anchor_z: float = 0.0
    region_fn: object = None
    shear_profile: object = None


def geometric_sizes(length, h, ratio_max):
    """Cell sizes along a band of ``length``, starting at ``h`` and growing
    geometrically at a ratio <= ``ratio_max``, summing exactly to ``length``."""
    if length <= 0.0:
        raise MeshError("band length must be positive")
    if h <= 0.0:
        raise MeshError("target size must be positive")
    if length <= h * (1.0 + 1e-12):
        return np.array([length])
    n = 2
    while h * (ratio_max**n - 1.0) / (ratio_max - 1.0) < length:
        n += 1
        if n > 10_000:
            raise MeshError("grading failed to converge")
    if n * h > length:
        # the growth window cannot reach length without shrinking below h;
        # fall back to uniform cells slightly finer than the target
        n = int(np.ceil(length / h))
        return np.full(n, length / n)
    r = brentq(lambda r: h * (r**n - 1.0) / (r - 1.0) - length, 1.0 + 1e-12, ratio_max)
    sizes = h * r ** np.arange(n)
    sizes *= length / sizes.sum()
    return sizes


def _segment_sizes(seg: AxisSegment):
    length = seg.end - seg.start
    if seg.mode == "uniform":
        n = max(1, int(np.ceil(length / seg.h - 1e-9)))
        return np.full(n, length / n)
    sizes = geometric_sizes(length, seg.h, seg.ratio_max)
    if seg.grow_from == "end":
        sizes = sizes[::-1]
    return sizes


def build_axis(segments):
    """Concatenate graded segments into one ascending breakpoint array."""
    if not segments:
        raise MeshError("axis needs at least one segment")
    pts = [segments[0].start]
    for seg in segments:
        if abs(seg.start - pts[-1]) > _GEOM_TOL:
            raise MeshError(
                f"axis segments not contiguous: {seg.start} does not continue from {pts[-1]}"
            )
        x = pts[-1]
        for s in _segment_sizes(seg):
            x += s
            pts.append(x)
        pts[-1] = seg.end  # pin band boundaries exactly
    return np.asarray(pts)


def _dot(a, b):
    """Dot products of stacked 3-vectors over the last axis.

    Each product is one vector-vector matmul, which rounds exactly like
    ``a @ b`` and ``np.linalg.norm`` on a single vector (an ``einsum`` or a
    sum over an axis does not)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _norm(v):
    return np.sqrt(_dot(v, v))


def local_frame(normal):
    """Orthonormal right-handed frame (n, m1, m2) with m2 the in-plane
    direction of steepest ascent (up-dip) and m1 = m2 x n horizontal.

    ``normal`` is one vector (3,) or a stack (..., 3); each of n, m1, m2
    has its shape."""
    n = np.asarray(normal, dtype=float)
    n = n / _norm(n)[..., None]
    m2 = np.array([0.0, 0.0, 1.0]) - n[..., 2:] * n
    # horizontal surface: fall back to the x axis for m2
    flat = _norm(m2)[..., None] < 1e-12
    m2 = np.where(flat, np.array([1.0, 0.0, 0.0]) - n[..., :1] * n, m2)
    m2 = m2 / _norm(m2)[..., None]
    m1 = np.cross(m2, n)
    return n, m1, m2


def _find_index(values, target, what):
    idx = np.flatnonzero(np.abs(values - target) <= _GEOM_TOL)
    if idx.size != 1:
        raise MeshError(f"{what} {target} is not a mesh gridline; fault surfaces must be conformal")
    return int(idx[0])


@dataclass
class InterfaceSet:
    """Struct-of-arrays description of all fault interface elements."""

    fault_names: list
    fault_ids: np.ndarray
    top_nodes: np.ndarray
    bottom_nodes: np.ndarray
    cell_top: np.ndarray
    cell_bottom: np.ndarray
    frames: np.ndarray
    areas: np.ndarray
    centroids: np.ndarray
    node_weights: np.ndarray
    edges: np.ndarray
    edge_lengths: np.ndarray

    @property
    def count(self):
        return int(self.fault_ids.shape[0])

    def of_fault(self, name):
        """Indices of the interface elements belonging to one fault."""
        fid = self.fault_names.index(name)
        return np.flatnonzero(self.fault_ids == fid)


# VTK hexahedron corner order: bottom face counterclockwise, then top.
_HEX_CORNERS = (
    (0, 0, 0),
    (1, 0, 0),
    (1, 1, 0),
    (0, 1, 0),
    (0, 0, 1),
    (1, 0, 1),
    (1, 1, 1),
    (0, 1, 1),
)
_PARENT_CORNERS = np.array(_HEX_CORNERS, dtype=float) * 2.0 - 1.0  # in [-1, 1]^3
_CORNER_ID = np.empty((2, 2, 2), dtype=np.int64)  # local corner id of offset (di, dj, dk)
_CORNER_ID[tuple(np.transpose(_HEX_CORNERS))] = np.arange(8)
# local corner ids of the face on the fault plane of the cell on its minus
# side, then of the cell on its plus side, for x and y faults; both list the
# same lattice corners in the same order, so twin nodes pair up index by index
_FAULT_FACES = {"x": ((1, 2, 6, 5), (0, 3, 7, 4)), "y": ((3, 2, 6, 7), (0, 1, 5, 4))}

_GP_1D = (-1.0 / np.sqrt(3.0), 1.0 / np.sqrt(3.0))


def _shape_gradients(parent):
    """dN/dxi of the trilinear hex at parent points (q, 3): (q, 8 nodes, 3)."""
    xi, eta, zeta = np.asarray(parent, dtype=float).T[:, :, None]
    sx, sy, sz = _PARENT_CORNERS.T
    return np.stack(
        [
            0.125 * sx * (1 + sy * eta) * (1 + sz * zeta),
            0.125 * sy * (1 + sx * xi) * (1 + sz * zeta),
            0.125 * sz * (1 + sx * xi) * (1 + sy * eta),
        ],
        axis=-1,
    )


@dataclass
class Mesh:
    points: np.ndarray
    hexes: np.ndarray
    regions: np.ndarray
    interfaces: InterfaceSet
    bounds: np.ndarray  # (2, 3) min/max of the unsheared domain box
    lattice: np.ndarray  # (n_nodes, 3) lattice indices (i, j, k); twins copy their origin's
    min_jacobian: float = 0.0

    @property
    def n_nodes(self):
        return int(self.points.shape[0])

    @property
    def n_cells(self):
        return int(self.hexes.shape[0])

    def cell_centroids(self):
        return self.points[self.hexes].mean(axis=1)

    def boundary_node_mask(self, sides=("xmin", "xmax", "ymin", "ymax", "zmin")):
        """Nodes lying on the named outer faces of the domain box."""
        p = self.points
        (xmin, ymin, zmin), (xmax, ymax, zmax) = self.bounds
        tol = _GEOM_TOL
        mask = np.zeros(self.n_nodes, dtype=bool)
        lookup = {
            "xmin": np.abs(p[:, 0] - xmin) <= tol,
            "xmax": np.abs(p[:, 0] - xmax) <= tol,
            "ymin": np.abs(p[:, 1] - ymin) <= tol,
            "ymax": np.abs(p[:, 1] - ymax) <= tol,
            "zmin": np.abs(p[:, 2] - zmin) <= tol,
            "zmax": np.abs(p[:, 2] - zmax) <= tol,
        }
        for s in sides:
            mask |= lookup[s]
        return mask


def _check_jacobians(points, hexes):
    """Minimum trilinear Jacobian determinant over all cells and corners."""
    xyz = points[hexes]  # (nc, 8, 3)
    return min(
        float(np.linalg.det(np.einsum("cai,aj->cij", xyz, dn)).min())
        for dn in _shape_gradients(_PARENT_CORNERS)
    )


def dissection_order(lattice):
    """Geometric nested-dissection order of nodes on an (i, j, k) lattice.

    An index box is bisected at the mid plane of its longest axis; the
    left half comes first, then the right half, then the separator plane,
    recursively until a box has no interior plane.  Nodes that share
    lattice indices (split twins) stay together.  Hexahedra couple only
    nodes at most one index apart, so the two halves never couple and a
    symmetric factorization in this order confines each half's fill to
    that half and its separators.
    """
    lattice = np.asarray(lattice)
    order = []

    def visit(nodes, lo, hi):
        if nodes.size == 0:
            return
        span = hi - lo
        axis = int(np.argmax(span))
        if span[axis] < 2:
            order.append(nodes)
            return
        mid = lo[axis] + span[axis] // 2
        left_hi, right_lo = hi.copy(), lo.copy()
        left_hi[axis], right_lo[axis] = mid - 1, mid + 1
        at = lattice[nodes, axis]
        visit(nodes[at < mid], lo, left_hi)
        visit(nodes[at > mid], right_lo, hi)
        order.append(nodes[at == mid])

    visit(np.arange(lattice.shape[0]), lattice.min(axis=0), lattice.max(axis=0))
    return np.concatenate(order)


def mirror_maps(mesh, free):
    """Node maps of the mirror planes x = mid and y = mid that the mesh admits.

    A cell's mirror is the cell at the mirrored lattice index, and its
    corners give the node map, so split twins on a mirror plane map onto
    each other.  An axis is kept only when that map is well defined, the
    points mirror bit for bit about the mid-plane of ``bounds``, the
    regions match and ``free`` (one flag per dof, three per node) is
    invariant.  Returns {axis: node map}, axis 0 for x and 1 for y.
    """
    nx, ny, nz = mesh.lattice.max(axis=0)
    cells = np.arange(mesh.n_cells).reshape(nz, ny, nx)
    free = np.asarray(free).reshape(-1, 3)
    maps = {}
    for axis in (0, 1):
        cell_map = np.flip(cells, axis=2 - axis).ravel()
        corners = np.array(_HEX_CORNERS)
        corners[:, axis] = 1 - corners[:, axis]
        image = mesh.hexes[cell_map][:, _CORNER_ID[tuple(corners.T)]]
        node_map = np.empty(mesh.n_nodes, dtype=np.int64)
        node_map[mesh.hexes] = image
        mirrored = mesh.points.copy()
        mirrored[:, axis] = mesh.bounds[:, axis].sum() - mirrored[:, axis]
        if (np.array_equal(node_map[mesh.hexes], image)
                and np.array_equal(mesh.points[node_map], mirrored)
                and np.array_equal(mesh.regions[cell_map], mesh.regions)
                and np.array_equal(free[node_map], free)):
            maps[axis] = node_map
    return maps


def _axis_of(field_value):
    if isinstance(field_value, np.ndarray):
        if field_value.ndim != 1 or field_value.size < 2 or np.any(np.diff(field_value) <= 0.0):
            raise MeshError("breakpoint arrays must be 1-D and strictly increasing")
        return field_value
    return build_axis(field_value)


def build_structured_domain(spec: DomainSpec) -> Mesh:
    """Build the lattice, split fault nodes, and assemble interface elements."""
    xs = _axis_of(spec.x_segments)
    ys = _axis_of(spec.y_segments)
    zs = _axis_of(spec.z_segments)
    nx, ny, nz = xs.size - 1, ys.size - 1, zs.size - 1

    profile = spec.shear_profile or (lambda x: 0.0)
    shear = np.array([float(profile(x)) for x in xs])
    for f in spec.faults:
        if f.axis != "x":
            continue
        want = np.tan(np.radians(f.dip_deg))
        got = float(profile(f.position))
        if abs(got - want) > 1e-12:
            raise MeshError(
                f"shear profile gives dx/dz = {got} at fault {f.name}, dip needs {want}"
            )
    za = spec.shear_anchor_z

    # node lattice, x sheared per column
    X, Y, Z = np.meshgrid(xs, ys, zs, indexing="ij")
    A = shear[:, None, None]
    pts = np.stack([X + A * (Z - za), Y, Z], axis=-1)
    # node id layout: i fastest, then j, then k
    points = pts.transpose(2, 1, 0, 3).reshape(-1, 3).copy()
    ijk = np.meshgrid(np.arange(nx + 1), np.arange(ny + 1), np.arange(nz + 1), indexing="ij")
    lattice = np.stack(ijk, axis=-1).transpose(2, 1, 0, 3).reshape(-1, 3)

    ids = np.arange(points.shape[0], dtype=np.int64).reshape(nz + 1, ny + 1, nx + 1)
    # cell id layout: i fastest, then j, then k
    hexes = np.stack(
        [ids[dk:dk + nz, dj:dj + ny, di:di + nx].ravel() for di, dj, dk in _HEX_CORNERS],
        axis=1,
    )

    def cell_id(f, a, u, k):
        """Cell at plane index a, lateral index u and layer k of fault f."""
        i, j = (a, u) if f.axis == "x" else (u, a)
        return (k * ny + j) * nx + i

    # resolve each fault onto its lattice plane p and its faces [u0, u1) x [k0, k1)
    resolved = []
    for f in spec.faults:
        plane, lateral = (xs, ys) if f.axis == "x" else (ys, xs)
        p = _find_index(plane, f.position, f"fault {f.name}: {f.axis} position")
        if p == 0 or p == plane.size - 1:
            raise MeshError(f"fault {f.name} lies on the domain boundary")
        u0 = _find_index(lateral, f.lateral_min, f"fault {f.name}: lateral_min")
        u1 = _find_index(lateral, f.lateral_max, f"fault {f.name}: lateral_max")
        k0 = _find_index(zs, f.z_min, f"fault {f.name}: z_min")
        k1 = _find_index(zs, f.z_max, f"fault {f.name}: z_max")
        resolved.append((f, p, u0, u1, k0, k1, lateral.size - 1))

    # split nodes, one fault at a time (see the module docstring for the
    # rule).  A split corner's (face, side) entries run over the faces
    # (u-1, k-1), (u-1, k), (u, k-1), (u, k), side 0 before side 1
    du, dk, side = (a.ravel() for a in np.meshgrid([1, 0], [1, 0], [0, 1], indexing="ij"))
    for f, p, u0, u1, k0, k1, n_u in resolved:
        u, k = np.arange(u0, u1 + 1), np.arange(k0, k1 + 1)
        u = u[((u > u0) | (u == 0)) & ((u < u1) | (u == n_u))]
        k = k[((k > k0) | (k == 0)) & ((k < k1) | (k == nz))]
        cu, ck = (a.ravel()[:, None] for a in np.meshgrid(u, k, indexing="ij"))
        fu, fk = cu - du, ck - dk  # (corners, 8) incident faces
        inside = (fu >= 0) & (fu < n_u) & (fk >= 0) & (fk < nz)
        cells = cell_id(f, p - 1 + side, fu, fk)[inside]
        di, dj = (1 - side, du) if f.axis == "x" else (du, 1 - side)
        local = np.broadcast_to(_CORNER_ID[di, dj, dk], inside.shape)[inside]
        plus = np.broadcast_to(side == 1, inside.shape)[inside]
        # a node id sits at one lattice corner, so the entries sharing an id
        # are one group of that corner.  A group with cells on both sides
        # gets one new node, in order of first appearance, and its plus-side
        # cells take it; the new rows copy the source row (a twin or not)
        src, first, group = np.unique(hexes[cells, local], return_index=True, return_inverse=True)
        n_plus = np.bincount(group, plus, src.size)
        cut = (n_plus > 0) & (n_plus < np.bincount(group, minlength=src.size))
        order = np.flatnonzero(cut)[np.argsort(first[cut])]
        new = np.empty(src.size, dtype=np.int64)
        new[order] = points.shape[0] + np.arange(order.size)
        moved = plus & cut[group]
        hexes[cells[moved], local[moved]] = new[group[moved]]
        points = np.vstack([points, points[src[order]]])
        lattice = np.vstack([lattice, lattice[src[order]]])

    # interface facets, one fault at a time, read from the final (post-split)
    # connectivity.  Facet (u, k) has index base + (u - u0)(k1 - k0) + (k - k0),
    # so its u-neighbour lies k1 - k0 further on and its k-neighbour one
    # further; each facet lists its u-edge, then its k-edge
    parts = [(np.zeros(0, np.int64), np.zeros((0, 4), np.int64), np.zeros((0, 4), np.int64),
              np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros((0, 3, 3)), np.zeros(0),
              np.zeros((0, 3)), np.zeros((0, 4)), np.zeros((0, 2), np.int64), np.zeros(0))]
    base = 0
    for fidx, (f, p, u0, u1, k0, k1, _) in enumerate(resolved):
        u, k = (a.ravel() for a in np.meshgrid(np.arange(u0, u1), np.arange(k0, k1), indexing="ij"))
        cell_m, cell_p = cell_id(f, p - 1, u, k), cell_id(f, p, u, k)
        face_m, face_p = _FAULT_FACES[f.axis]
        node_m, node_p = hexes[cell_m][:, face_m], hexes[cell_p][:, face_p]
        quad = points[node_m]  # (nf, 4, 3)
        n_hat = np.cross(quad[:, 2] - quad[:, 0], quad[:, 3] - quad[:, 1])
        n_hat = n_hat / _norm(n_hat)[:, None]
        # normals point up, or along the fault's axis on vertical facets
        tilted = np.abs(n_hat[:, 2]) > 1e-9
        down = np.where(tilted, n_hat[:, 2], n_hat[:, "xy".index(f.axis)]) < 0.0
        n_hat, m1, m2 = local_frame(np.where(down[:, None], -n_hat, n_hat))
        centroid = quad.mean(axis=1)
        # the top cell is the one the normal points into
        up = _dot(points[hexes[cell_p]].mean(axis=1) - centroid, n_hat) > 0.0
        warp = np.abs(_dot(quad[:, 1:] - quad[:, :1], n_hat[:, None])).max(axis=1)
        if np.any(warp > 1e-9 * np.maximum(1.0, np.abs(quad).max(axis=(1, 2)))):
            raise MeshError(f"fault {f.name}: non-planar interface facet")
        # 2x2 Gauss lumped weights w_a = integral of N_a dA
        weights, area = np.zeros((u.size, 4)), np.zeros(u.size)
        for gx, gy in itertools.product(_GP_1D, _GP_1D):
            dxi = 0.25 * np.array([-(1 - gy), (1 - gy), (1 + gy), -(1 + gy)]) @ quad
            deta = 0.25 * np.array([-(1 - gx), -(1 + gx), (1 + gx), (1 - gx)]) @ quad
            da = _norm(np.cross(dxi, deta))
            weights += 0.25 * np.array(
                [(1 - gx) * (1 - gy), (1 + gx) * (1 - gy), (1 + gx) * (1 + gy), (1 - gx) * (1 + gy)]
            ) * da[:, None]
            area += da
        bottom = np.where(up[:, None], node_m, node_p)
        has = np.stack([u + 1 < u1, k + 1 < k1], axis=1)  # (nf, 2): u- and k-neighbour
        me = np.broadcast_to(base + np.arange(u.size)[:, None], has.shape)
        lengths = _norm(points[bottom[:, [1, 3]][has]] - points[bottom[:, [2, 2]][has]])
        parts.append((
            np.full(u.size, fidx), np.where(up[:, None], node_p, node_m), bottom,
            np.where(up, cell_p, cell_m), np.where(up, cell_m, cell_p),
            np.stack([n_hat, m1, m2], axis=-1), area, centroid, weights,
            np.stack([me, me + [k1 - k0, 1]], axis=-1)[has], lengths,
        ))
        base += u.size
    iface = InterfaceSet([f.name for f, *_ in resolved], *map(np.concatenate, zip(*parts)))

    centroids = points[hexes].mean(axis=1)
    if spec.region_fn is None:
        regions = np.zeros(hexes.shape[0], dtype=np.int64)
    else:
        regions = np.array(
            [int(spec.region_fn(c)) for c in centroids], dtype=np.int64
        )

    minj = _check_jacobians(points, hexes)
    if minj <= 0.0:
        raise MeshError(f"degenerate cell: minimum Jacobian {minj:.3e}")

    bounds = np.array([[xs[0], ys[0], zs[0]], [xs[-1], ys[-1], zs[-1]]])
    return Mesh(
        points=points,
        hexes=hexes,
        regions=regions,
        interfaces=iface,
        bounds=bounds,
        lattice=lattice,
        min_jacobian=minj,
    )

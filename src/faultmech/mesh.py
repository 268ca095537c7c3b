"""Structured hexahedral meshes with conformal, node-split fault surfaces.

The generator builds a logically structured lattice, shears whole node
columns so dipping surfaces stay exact cell-face unions, duplicates nodes
across each fault surface, and emits quadrilateral interface elements that
carry the local traction frame used by the contact formulation.
"""
from __future__ import annotations

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
    "geometric_sizes",
    "local_frame",
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
    ``dip_deg`` tilts the surface from vertical by shearing node columns, and
    is only supported for surfaces whose plane axis is x.
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
    ascending breakpoint array. ``shear_profile``, when given, is a callable
    x -> dx/dz evaluated per gridline and must reproduce each x fault's dip
    at its trace; otherwise the profile is derived from the fault specs."""

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


def local_frame(normal):
    """Orthonormal right-handed frame (n, m1, m2) with m2 the in-plane
    direction of steepest ascent (up-dip) and m1 = m2 x n horizontal."""
    n = np.asarray(normal, dtype=float)
    n = n / np.linalg.norm(n)
    ez = np.array([0.0, 0.0, 1.0])
    m2 = ez - (n @ ez) * n
    nrm = np.linalg.norm(m2)
    if nrm < 1e-12:
        # horizontal surface: fall back to the x axis for m2
        m2 = np.array([1.0, 0.0, 0.0]) - n[0] * n
        nrm = np.linalg.norm(m2)
    m2 = m2 / nrm
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
# local corner ids of the +x / -x / +y / -y faces, both listed in the same
# lattice-corner order so twin nodes pair up index by index
_FACE_X_PLUS = (1, 2, 6, 5)
_FACE_X_MINUS = (0, 3, 7, 4)
_FACE_Y_PLUS = (3, 2, 6, 7)
_FACE_Y_MINUS = (0, 1, 5, 4)

_GP_1D = (-1.0 / np.sqrt(3.0), 1.0 / np.sqrt(3.0))


@dataclass
class Mesh:
    points: np.ndarray
    hexes: np.ndarray
    regions: np.ndarray
    interfaces: InterfaceSet
    bounds: np.ndarray  # (2, 3) min/max of the unsheared domain box
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
    corners = np.array(_HEX_CORNERS, dtype=float) * 2.0 - 1.0  # to [-1, 1]^3
    worst = np.inf
    xyz = points[hexes]  # (nc, 8, 3)
    for xi, eta, zeta in corners:
        dn = np.empty((8, 3))
        for a, (ca, cb, cc) in enumerate(_HEX_CORNERS):
            sa, sb, sc = ca * 2 - 1, cb * 2 - 1, cc * 2 - 1
            dn[a, 0] = 0.125 * sa * (1 + sb * eta) * (1 + sc * zeta)
            dn[a, 1] = 0.125 * sb * (1 + sa * xi) * (1 + sc * zeta)
            dn[a, 2] = 0.125 * sc * (1 + sa * xi) * (1 + sb * eta)
        jac = np.einsum("cai,aj->cij", xyz, dn)
        worst = min(worst, float(np.linalg.det(jac).min()))
    return worst


def _shear_coefficients(xs, faults):
    """Per-gridline column shear dx/dz realizing each x fault's dip.

    The shear is piecewise linear in x through control points at the domain
    ends (zero) and at each dipping fault trace (tan of its dip), so
    surfaces between them interpolate smoothly.
    """
    ctrl_x = [xs[0], xs[-1]]
    ctrl_a = [0.0, 0.0]
    for f in faults:
        if f.axis != "x":
            continue
        a = np.tan(np.radians(f.dip_deg))
        ctrl_x.append(f.position)
        ctrl_a.append(a)
    order = np.argsort(ctrl_x)
    cx = np.asarray(ctrl_x)[order]
    ca = np.asarray(ctrl_a)[order]
    if np.any(np.diff(cx) <= _GEOM_TOL):
        # merge duplicate control points, requiring consistent shear there
        ux, inv = np.unique(np.round(cx / _GEOM_TOL).astype(np.int64), return_inverse=True)
        merged_x = np.empty(ux.size)
        merged_a = np.empty(ux.size)
        for m in range(ux.size):
            sel = inv == m
            vals = ca[sel]
            if np.ptp(vals) > 1e-12:
                raise MeshError("conflicting dips pinned at the same x position")
            merged_x[m] = cx[sel][0]
            merged_a[m] = vals[0]
        cx, ca = merged_x, merged_a
    return np.interp(xs, cx, ca)


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

    if spec.shear_profile is not None:
        shear = np.array([float(spec.shear_profile(x)) for x in xs])
        for f in spec.faults:
            if f.axis != "x":
                continue
            want = np.tan(np.radians(f.dip_deg))
            got = float(spec.shear_profile(f.position))
            if abs(got - want) > 1e-12:
                raise MeshError(
                    f"shear profile gives dx/dz = {got} at fault {f.name}, dip needs {want}"
                )
    else:
        shear = _shear_coefficients(xs, spec.faults)
    za = spec.shear_anchor_z

    # node lattice, x sheared per column
    X, Y, Z = np.meshgrid(xs, ys, zs, indexing="ij")
    A = shear[:, None, None]
    pts = np.stack([X + A * (Z - za), Y, Z], axis=-1)
    # node id layout: i fastest, then j, then k
    points = pts.transpose(2, 1, 0, 3).reshape(-1, 3).copy()

    def nid(i, j, k):
        return (k * (ny + 1) + j) * (nx + 1) + i

    def cid(i, j, k):
        return (k * ny + j) * nx + i

    hexes = np.empty((nx * ny * nz, 8), dtype=np.int64)
    for k in range(nz):
        for j in range(ny):
            base = nid(0, j, k)
            row = np.arange(nx)
            c0 = base + row
            cells = cid(0, j, k) + row
            for a, (di, dj, dk) in enumerate(_HEX_CORNERS):
                hexes[cells, a] = nid(di, j + dj, k + dk) + row

    # resolve each fault onto lattice index ranges
    resolved = []
    for f in spec.faults:
        if f.axis == "x":
            ip = _find_index(xs, f.position, f"fault {f.name}: x position")
            if ip == 0 or ip == nx:
                raise MeshError(f"fault {f.name} lies on the domain boundary")
            j0 = _find_index(ys, f.lateral_min, f"fault {f.name}: lateral_min")
            j1 = _find_index(ys, f.lateral_max, f"fault {f.name}: lateral_max")
            k0 = _find_index(zs, f.z_min, f"fault {f.name}: z_min")
            k1 = _find_index(zs, f.z_max, f"fault {f.name}: z_max")
            resolved.append((f, ip, j0, j1, k0, k1))
        else:
            jp = _find_index(ys, f.position, f"fault {f.name}: y position")
            if jp == 0 or jp == ny:
                raise MeshError(f"fault {f.name} lies on the domain boundary")
            i0 = _find_index(xs, f.lateral_min, f"fault {f.name}: lateral_min")
            i1 = _find_index(xs, f.lateral_max, f"fault {f.name}: lateral_max")
            k0 = _find_index(zs, f.z_min, f"fault {f.name}: z_min")
            k1 = _find_index(zs, f.z_max, f"fault {f.name}: z_max")
            resolved.append((f, jp, i0, i1, k0, k1))

    # split nodes, one fault at a time; a lattice node is duplicated exactly
    # when every in-domain face of its lattice plane that touches it belongs
    # to the fault, which keeps tip and junction nodes shared
    extra_points = []
    next_id = points.shape[0]
    corner_lookup = {c: a for a, c in enumerate(_HEX_CORNERS)}
    for f, p, u0, u1, k0, k1 in resolved:
        faces = {(u, k) for u in range(u0, u1) for k in range(k0, k1)}
        for u in range(u0, u1 + 1):
            for k in range(k0, k1 + 1):
                incident = [
                    (uu, kk)
                    for uu in (u - 1, u)
                    for kk in (k - 1, k)
                    if 0 <= uu < (ny if f.axis == "x" else nx) and 0 <= kk < nz
                ]
                if not incident or not all(fc in faces for fc in incident):
                    continue
                # cells touching this lattice corner, keyed by the node id
                # they currently reference (an earlier fault may have split it)
                touching = []
                for uu, kk in incident:
                    for side in (0, 1):
                        if f.axis == "x":
                            ii, jj = p - 1 + side, uu
                        else:
                            ii, jj = uu, p - 1 + side
                        if not (0 <= ii < nx and 0 <= jj < ny):
                            continue
                        if f.axis == "x":
                            corner = (p - ii, u - jj, k - kk)
                        else:
                            corner = (u - ii, p - jj, k - kk)
                        local = corner_lookup[corner]
                        touching.append((cid(ii, jj, kk), local, side))
                groups = {}
                for cell, local, side in touching:
                    groups.setdefault(int(hexes[cell, local]), []).append((cell, local, side))
                for old_id, members in groups.items():
                    plus = [(c, l) for c, l, s in members if s == 1]
                    minus = [(c, l) for c, l, s in members if s == 0]
                    if not plus or not minus:
                        continue  # one-sided group (already cut by another fault)
                    if old_id < points.shape[0]:
                        coords = points[old_id]
                    else:
                        coords = extra_points[old_id - points.shape[0]]
                    extra_points.append(coords)
                    for c, l in plus:
                        hexes[c, l] = next_id
                    next_id += 1
    if extra_points:
        points = np.vstack([points, np.array(extra_points)])

    # interface elements, read from the final (post-split) connectivity
    fault_names = [f.name for f, *_ in resolved]
    fids, tops, bots, ctop, cbot = [], [], [], [], []
    frames, areas, cents, weights = [], [], [], []
    edge_pairs, edge_lens = [], []
    index_of = {}
    for fidx, (f, p, u0, u1, k0, k1) in enumerate(resolved):
        axis_vec = np.array([1.0, 0.0, 0.0]) if f.axis == "x" else np.array([0.0, 1.0, 0.0])
        for u in range(u0, u1):
            for k in range(k0, k1):
                if f.axis == "x":
                    cell_m, cell_p = cid(p - 1, u, k), cid(p, u, k)
                    loc_m, loc_p = _FACE_X_PLUS, _FACE_X_MINUS
                else:
                    cell_m, cell_p = cid(u, p - 1, k), cid(u, p, k)
                    loc_m, loc_p = _FACE_Y_PLUS, _FACE_Y_MINUS
                nm = hexes[cell_m, list(loc_m)]
                npl = hexes[cell_p, list(loc_p)]
                quad = points[nm]
                n_raw = np.cross(quad[2] - quad[0], quad[3] - quad[1])
                n_hat = n_raw / np.linalg.norm(n_raw)
                if abs(n_hat[2]) > 1e-9:
                    if n_hat[2] < 0.0:
                        n_hat = -n_hat
                elif n_hat @ axis_vec < 0.0:
                    n_hat = -n_hat
                n_hat, m1, m2 = local_frame(n_hat)
                centroid = quad.mean(axis=0)
                if (points[hexes[cell_p]].mean(axis=0) - centroid) @ n_hat > 0.0:
                    top_cell, bot_cell = cell_p, cell_m
                    top_n, bot_n = npl, nm
                else:
                    top_cell, bot_cell = cell_m, cell_p
                    top_n, bot_n = nm, npl
                # 2x2 Gauss lumped weights w_a = integral of N_a dA
                w = np.zeros(4)
                area = 0.0
                for gx in _GP_1D:
                    for gy in _GP_1D:
                        N = 0.25 * np.array(
                            [
                                (1 - gx) * (1 - gy),
                                (1 + gx) * (1 - gy),
                                (1 + gx) * (1 + gy),
                                (1 - gx) * (1 + gy),
                            ]
                        )
                        dxi = quad.T @ (
                            0.25
                            * np.array([-(1 - gy), (1 - gy), (1 + gy), -(1 + gy)])
                        )
                        deta = quad.T @ (
                            0.25
                            * np.array([-(1 - gx), -(1 + gx), (1 + gx), (1 - gx)])
                        )
                        da = np.linalg.norm(np.cross(dxi, deta))
                        w += N * da
                        area += da
                warp = max(abs((quad[a] - quad[0]) @ n_hat) for a in (1, 2, 3))
                if warp > 1e-9 * max(1.0, float(np.abs(quad).max())):
                    raise MeshError(f"fault {f.name}: non-planar interface facet")
                index_of[(fidx, u, k)] = len(fids)
                fids.append(fidx)
                tops.append(top_n)
                bots.append(bot_n)
                ctop.append(top_cell)
                cbot.append(bot_cell)
                frames.append(np.column_stack([n_hat, m1, m2]))
                areas.append(area)
                cents.append(centroid)
                weights.append(w)
        # in-surface adjacency with shared-edge lengths
        for u in range(u0, u1):
            for k in range(k0, k1):
                me = index_of[(fidx, u, k)]
                if (fidx, u + 1, k) in index_of:
                    other = index_of[(fidx, u + 1, k)]
                    a, b = bots[me][1], bots[me][2]
                    edge_pairs.append((me, other))
                    edge_lens.append(float(np.linalg.norm(points[a] - points[b])))
                if (fidx, u, k + 1) in index_of:
                    other = index_of[(fidx, u, k + 1)]
                    a, b = bots[me][3], bots[me][2]
                    edge_pairs.append((me, other))
                    edge_lens.append(float(np.linalg.norm(points[a] - points[b])))

    iface = InterfaceSet(
        fault_names=fault_names,
        fault_ids=np.asarray(fids, dtype=np.int64),
        top_nodes=np.asarray(tops, dtype=np.int64).reshape(-1, 4),
        bottom_nodes=np.asarray(bots, dtype=np.int64).reshape(-1, 4),
        cell_top=np.asarray(ctop, dtype=np.int64),
        cell_bottom=np.asarray(cbot, dtype=np.int64),
        frames=np.asarray(frames).reshape(-1, 3, 3),
        areas=np.asarray(areas),
        centroids=np.asarray(cents).reshape(-1, 3),
        node_weights=np.asarray(weights).reshape(-1, 4),
        edges=np.asarray(edge_pairs, dtype=np.int64).reshape(-1, 2),
        edge_lengths=np.asarray(edge_lens),
    )

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
        min_jacobian=minj,
    )

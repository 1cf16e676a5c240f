"""Independent reference implementations used only to cross-check the
package.  Everything here is deliberately written in the dumbest way that
can be right: plain loops, no shared code with the implementations under
test."""

import math

import numpy as np


# ---------------------------------------------------------------------------
# naive Sudoku backtracker: first empty cell in row-major order, digits tried
# ascending, validity checked by scanning the row, column, and box.


def _placement_ok(rows, r, c, d):
    for j in range(9):
        if rows[r][j] == d:
            return False
    for i in range(9):
        if rows[i][c] == d:
            return False
    br, bc = 3 * (r // 3), 3 * (c // 3)
    for i in range(br, br + 3):
        for j in range(bc, bc + 3):
            if rows[i][j] == d:
                return False
    return True


def solve_naive(puzzle, limit):
    """Returns (solutions as lists-of-lists, exhausted)."""
    rows = [[int(v) for v in row] for row in np.asarray(puzzle)]
    for r in range(9):
        for c in range(9):
            d = rows[r][c]
            if d:
                rows[r][c] = 0
                ok = _placement_ok(rows, r, c, d)
                rows[r][c] = d
                if not ok:
                    return [], True
    solutions = []

    def recurse():
        for r in range(9):
            for c in range(9):
                if rows[r][c] == 0:
                    for d in range(1, 10):
                        if _placement_ok(rows, r, c, d):
                            rows[r][c] = d
                            if not recurse():
                                rows[r][c] = 0
                                return False
                            rows[r][c] = 0
                    return True
        solutions.append([row[:] for row in rows])
        return len(solutions) < limit

    exhausted = recurse()
    return solutions, exhausted


# ---------------------------------------------------------------------------
# the solver's root state, seeded one given at a time in row-major order:
# each given is assigned and eliminated from its 20 peers, and a peer left
# with one candidate is assigned in turn.  Candidates are 9-bit masks, bit
# d-1 for digit d.  Returns the 81 masks, or None on a contradiction.


def _peers_slow(idx):
    r, c = divmod(idx, 9)
    peers = set()
    for k in range(9):
        peers.add(9 * r + k)
        peers.add(9 * k + c)
    br, bc = 3 * (r // 3), 3 * (c // 3)
    for i in range(br, br + 3):
        for j in range(bc, bc + 3):
            peers.add(9 * i + j)
    peers.discard(idx)
    return sorted(peers)


_PEERS = [_peers_slow(idx) for idx in range(81)]


def _assign_slow(cands, idx, bit):
    cands[idx] = bit
    queue = [(idx, bit)]
    while queue:
        i, b = queue.pop()
        for p in _PEERS[i]:
            old = cands[p]
            if old & b:
                new = old & ~b
                if not new:
                    return False
                cands[p] = new
                if new & (new - 1) == 0:
                    queue.append((p, new))
    return True


def init_candidates_one_given_at_a_time(puzzle):
    cands = [0x1FF] * 81
    for idx, v in enumerate(int(v) for v in np.asarray(puzzle).reshape(-1)):
        if v:
            bit = 1 << (v - 1)
            if not cands[idx] & bit:
                return None
            if cands[idx] != bit and not _assign_slow(cands, idx, bit):
                return None
    return cands


# ---------------------------------------------------------------------------
# loss reference values, straight triple loops


def _unit_cells():
    units = []
    for i in range(9):
        units.append([(i, j) for j in range(9)])
    for j in range(9):
        units.append([(i, j) for i in range(9)])
    for br in range(3):
        for bc in range(3):
            units.append(
                [(3 * br + di, 3 * bc + dj) for di in range(3) for dj in range(3)]
            )
    return units


UNIT_CELLS = _unit_cells()


def unit_masks_slow(grid):
    """The digits placed in each unit as a 9-bit mask, bit d-1 for digit d,
    one cell at a time; a digit placed twice sets its bit once."""
    masks = []
    for unit in UNIT_CELLS:
        mask = 0
        for (i, j) in unit:
            v = int(grid[i][j])
            if v:
                mask |= 1 << (v - 1)
        masks.append(mask)
    return masks


def is_valid_complete_slow(grid):
    for unit in UNIT_CELLS:
        if sorted(int(grid[i][j]) for (i, j) in unit) != list(range(1, 10)):
            return False
    return True


def is_consistent_partial_slow(grid):
    for unit in UNIT_CELLS:
        placed = [int(grid[i][j]) for (i, j) in unit if grid[i][j] != 0]
        if len(placed) != len(set(placed)):
            return False
    return True


def standard_loss_slow(pred, target):
    total = 0.0
    for i in range(9):
        for j in range(9):
            p = max(float(pred[i][j][int(target[i][j]) - 1]), 1e-12)
            total -= math.log(p)
    return total / 81.0


def constraints_loss_slow(pred, mask, givens, mode):
    mask = np.asarray(mask).reshape(9, 9)
    total = 0.0
    for num in range(1, 10):
        for unit in UNIT_CELLS:
            if mode == "fixed-target":
                target = 1.0
            elif mode == "solution-consistent":
                given_count = sum(1 for (i, j) in unit if int(givens[i][j]) == num)
                target = max(0.0, 1.0 - given_count)
            else:
                raise ValueError(mode)
            mass = sum(
                float(mask[i][j]) * float(pred[i][j][num - 1]) for (i, j) in unit
            )
            total += (target - mass) ** 2
    return total


def expert_loss_slow(pred, target):
    expected = [
        [sum(k * float(pred[i][j][k - 1]) for k in range(1, 10)) for j in range(9)]
        for i in range(9)
    ]
    total = 0.0
    for unit in UNIT_CELLS:
        pred_sum = sum(expected[i][j] for (i, j) in unit)
        true_sum = sum(int(target[i][j]) for (i, j) in unit)
        total += abs(pred_sum - true_sum)
    return total


# ---------------------------------------------------------------------------
# greedy post-processing: most confident empty cell first, each taking its
# most probable digit not yet placed in its row, column or box


def greedy_fill_slow(tensor, puzzle):
    grid = [[int(v) for v in row] for row in np.asarray(puzzle)]
    empties = [(i, j) for i in range(9) for j in range(9) if grid[i][j] == 0]
    empties.sort(key=lambda ij: (-max(tensor[ij[0]][ij[1]]), ij[0], ij[1]))
    for i, j in empties:
        for d in sorted(range(1, 10), key=lambda d: (-tensor[i][j][d - 1], d)):
            if _placement_ok(grid, i, j, d):
                grid[i][j] = d
                break
    return grid


# ---------------------------------------------------------------------------
# finite-difference gradients


def finite_difference_grads(loss_vec_fn, params, fields, eps=1e-5):
    """Central differences of a vector-valued loss over every parameter entry.

    ``loss_vec_fn(params)`` returns a 1-D array of loss values; the result is
    one params-shaped gradient dict per loss component, so one sweep of
    2 * n_params evaluations checks several losses at once.
    """
    n_out = len(loss_vec_fn(params))
    grads = [
        {f: np.zeros_like(getattr(params, f)) for f in fields} for _ in range(n_out)
    ]
    for f in fields:
        arr = getattr(params, f)
        flat = arr.reshape(-1)
        outs = [grads[c][f].reshape(-1) for c in range(n_out)]
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = loss_vec_fn(params)
            flat[i] = orig - eps
            f_minus = loss_vec_fn(params)
            flat[i] = orig
            for c in range(n_out):
                outs[c][i] = (f_plus[c] - f_minus[c]) / (2.0 * eps)
    return grads


def block_relative_error(analytic, numeric, fields):
    """Largest per-block L2 relative error between two gradient sets."""
    worst = 0.0
    for f in fields:
        a = np.asarray(analytic[f] if isinstance(analytic, dict) else getattr(analytic, f))
        n = np.asarray(numeric[f] if isinstance(numeric, dict) else getattr(numeric, f))
        denom = max(np.linalg.norm(a), np.linalg.norm(n), 1e-12)
        worst = max(worst, float(np.linalg.norm(a - n) / denom))
    return worst


# ---------------------------------------------------------------------------
# scalar Adam recurrence, followed symbol by symbol


def adam_scalar_reference(grad_fn, theta, steps, lr=0.001, beta1=0.9, beta2=0.999,
                          eps=1e-8):
    m = v = 0.0
    for t in range(1, steps + 1):
        g = grad_fn(theta)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        theta = theta - lr * m_hat / (math.sqrt(v_hat) + eps)
    return theta


# ---------------------------------------------------------------------------
# one Adam step as a pure function on flat arrays: the textbook formula with
# bias-corrected moments, new arrays out, inputs untouched


def adam_step_slow(params, grads, m, v, timestep, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Returns (new params, new m, new v, new timestep)."""
    t = timestep + 1
    g = grads
    m = beta1 * m + (1.0 - beta1) * g
    v = beta2 * v + (1.0 - beta2) * g * g
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    new = params - lr * m_hat / (np.sqrt(v_hat) + eps)
    return new, m, v, t

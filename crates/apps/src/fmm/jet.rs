//! Truncated multivariate Taylor ("jet") arithmetic in three variables.
//!
//! Used to evaluate all partial derivatives of the Laplace kernel
//! `G(r) = 1/|r|` up to order `2P` at a point, which is the only analytic
//! ingredient the Cartesian-Taylor FMM translation operators need. Working
//! with jets sidesteps hand-derived recurrences for the derivative tensors:
//! we evaluate `1/sqrt(s0 + u)` in jet arithmetic, where `u` is the
//! (exactly quadratic) jet of `|r0 + h|² − |r0|²`.

use super::tables::MultiIndexTable;

/// Kernel-derivative evaluator for a fixed order.
#[derive(Debug, Clone)]
pub struct KernelJet {
    table: MultiIndexTable,
    /// The truncated-product pairs `(a, b, out)` whose `b` is one of the
    /// six positions where `u` can be nonzero, in the table's pair order.
    u_pairs: Vec<(u32, u32, u32)>,
}

impl KernelJet {
    /// Builds the evaluator for derivatives up to `order`.
    pub fn new(order: usize) -> Self {
        let table = MultiIndexTable::new(order);
        let support: Vec<u32> = [
            (1, 0, 0),
            (0, 1, 0),
            (0, 0, 1),
            (2, 0, 0),
            (0, 2, 0),
            (0, 0, 2),
        ]
        .into_iter()
        .filter_map(|(i, j, k)| table.pos(i, j, k).map(|p| p as u32))
        .collect();
        let u_pairs = table
            .product_pairs()
            .into_iter()
            .filter(|(_, b, _)| support.contains(b))
            .collect();
        KernelJet { table, u_pairs }
    }

    /// The underlying index table.
    pub fn table(&self) -> &MultiIndexTable {
        &self.table
    }

    /// Truncated product `out = a * u`, for a `u` that is zero off the six
    /// positions of `u_pairs`.
    ///
    /// The full pair list would also add `a[i] · 0.0`, that is ±0.0, for
    /// every other position of `u`. Each `out[o]` is a running sum from
    /// +0.0, and such a sum is never −0.0 (`x + (−x)` is +0.0, and a sum of
    /// two finite floats is exact where it is subnormal, so it never rounds
    /// to zero). Adding ±0.0 to a value that is not −0.0 leaves its bits
    /// alone, so for finite `a` this gives every bit the full product
    /// gives, signed zeros included.
    fn mul_u(&self, a: &[f64], u: &[f64], out: &mut [f64]) {
        out.fill(0.0);
        for &(i, j, o) in &self.u_pairs {
            out[o as usize] += a[i as usize] * u[j as usize];
        }
    }

    /// Taylor coefficients of `G(r0 + h) = 1/|r0 + h|` as a polynomial in
    /// `h`: returns `T` with `T[γ] = D^γ G(r0) / γ!`.
    ///
    /// # Panics
    /// Panics if `r0` is the origin.
    pub fn inv_r_coeffs(&self, r0: [f64; 3]) -> Vec<f64> {
        let n = self.table.len();
        let order = self.table.order;
        let s0 = r0[0] * r0[0] + r0[1] * r0[1] + r0[2] * r0[2];
        assert!(s0 > 0.0, "kernel jet at the origin");
        // u = |r0+h|² − s0 = 2 r0·h + |h|², an exact (quadratic) jet.
        let mut u = vec![0.0; n];
        let t = &self.table;
        if order >= 1 {
            u[t.pos(1, 0, 0).unwrap()] = 2.0 * r0[0];
            u[t.pos(0, 1, 0).unwrap()] = 2.0 * r0[1];
            u[t.pos(0, 0, 1).unwrap()] = 2.0 * r0[2];
        }
        if order >= 2 {
            u[t.pos(2, 0, 0).unwrap()] = 1.0;
            u[t.pos(0, 2, 0).unwrap()] = 1.0;
            u[t.pos(0, 0, 2).unwrap()] = 1.0;
        }
        // Univariate series of g(s) = s^{-1/2} about s0:
        //   c_k = binom(-1/2, k) s0^{-1/2-k}.
        let mut c = vec![0.0; order + 1];
        let mut binom = 1.0; // binom(-1/2, 0)
        let mut s_pow = 1.0 / s0.sqrt(); // s0^{-1/2-k} running value
        for (k, ck) in c.iter_mut().enumerate() {
            *ck = binom * s_pow;
            binom *= (-0.5 - k as f64) / (k as f64 + 1.0);
            s_pow /= s0;
        }
        // Horner on jets: G = ((c_m u + c_{m-1}) u + ...) u + c_0.
        let mut g = vec![0.0; n];
        g[0] = c[order];
        let mut tmp = vec![0.0; n];
        for k in (0..order).rev() {
            self.mul_u(&g, &u, &mut tmp);
            std::mem::swap(&mut g, &mut tmp);
            g[0] += c[k];
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(r: [f64; 3]) -> f64 {
        1.0 / (r[0] * r[0] + r[1] * r[1] + r[2] * r[2]).sqrt()
    }

    #[test]
    fn zeroth_coefficient_is_value() {
        let kj = KernelJet::new(4);
        let r0 = [1.0, 2.0, -0.5];
        let t = kj.inv_r_coeffs(r0);
        assert!((t[0] - g(r0)).abs() < 1e-14);
    }

    #[test]
    fn first_derivatives_match_closed_form() {
        let kj = KernelJet::new(3);
        let r0 = [1.5, -0.7, 2.2];
        let t = kj.inv_r_coeffs(r0);
        let r3 = (r0[0] * r0[0] + r0[1] * r0[1] + r0[2] * r0[2]).powf(1.5);
        // D_x (1/r) = -x/r³ and T[e_x] = D_x G / 1!.
        let tb = kj.table();
        assert!((t[tb.pos(1, 0, 0).unwrap()] + r0[0] / r3).abs() < 1e-12);
        assert!((t[tb.pos(0, 1, 0).unwrap()] + r0[1] / r3).abs() < 1e-12);
        assert!((t[tb.pos(0, 0, 1).unwrap()] + r0[2] / r3).abs() < 1e-12);
    }

    #[test]
    fn second_derivatives_match_closed_form() {
        let kj = KernelJet::new(4);
        let r0 = [0.9, 1.1, -1.3];
        let t = kj.inv_r_coeffs(r0);
        let r2 = r0[0] * r0[0] + r0[1] * r0[1] + r0[2] * r0[2];
        let r5 = r2.powf(2.5);
        let tb = kj.table();
        // D_xx (1/r) = (3x² - r²)/r⁵; T[(2,0,0)] = D_xx/2!.
        let want = (3.0 * r0[0] * r0[0] - r2) / r5 / 2.0;
        assert!((t[tb.pos(2, 0, 0).unwrap()] - want).abs() < 1e-12);
        // D_xy (1/r) = 3xy/r⁵; T[(1,1,0)] = D_xy.
        let want = 3.0 * r0[0] * r0[1] / r5;
        assert!((t[tb.pos(1, 1, 0).unwrap()] - want).abs() < 1e-12);
    }

    #[test]
    fn taylor_series_predicts_nearby_values() {
        let kj = KernelJet::new(8);
        let r0 = [2.0, 1.0, -1.5];
        let t = kj.inv_r_coeffs(r0);
        let tb = kj.table();
        let h = [0.05, -0.08, 0.06];
        let mut mono = vec![0.0; tb.len()];
        tb.monomials(h, &mut mono);
        let approx: f64 = t.iter().zip(&mono).map(|(a, b)| a * b).sum();
        let exact = g([r0[0] + h[0], r0[1] + h[1], r0[2] + h[2]]);
        assert!(
            (approx - exact).abs() / exact < 1e-10,
            "approx {approx} exact {exact}"
        );
    }

    #[test]
    fn laplace_kernel_is_harmonic() {
        // Δ(1/r) = 0 away from the origin: T[(2,0,0)]·2 + T[(0,2,0)]·2 +
        // T[(0,0,2)]·2 must vanish.
        let kj = KernelJet::new(2);
        let t = kj.inv_r_coeffs([1.3, -2.1, 0.4]);
        let tb = kj.table();
        let lap = 2.0
            * (t[tb.pos(2, 0, 0).unwrap()]
                + t[tb.pos(0, 2, 0).unwrap()]
                + t[tb.pos(0, 0, 2).unwrap()]);
        assert!(lap.abs() < 1e-12, "laplacian {lap}");
    }
}

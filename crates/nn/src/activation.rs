//! Element-wise activation functions and their derivatives.

use hec_tensor::Matrix;

/// Element-wise activation applied by a [`crate::Dense`] layer.
///
/// The derivative is expressed in terms of the *activated output* `y = f(x)`,
/// which is what the backward pass has cached (this is exact for all four
/// variants: linear, sigmoid, tanh and ReLU).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Activation {
    /// Identity: `f(x) = x`.
    #[default]
    Linear,
    /// Logistic sigmoid: `f(x) = 1 / (1 + e^{-x})`.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Rectified linear unit: `f(x) = max(0, x)`.
    Relu,
}

impl Activation {
    /// Applies the activation to every element of `m`.
    pub fn apply(self, m: &Matrix) -> Matrix {
        match self {
            Activation::Linear => m.clone(),
            Activation::Sigmoid => m.map(sigmoid),
            Activation::Tanh => m.map(f32::tanh),
            Activation::Relu => m.map(|x| x.max(0.0)),
        }
    }

    /// Applies the activation to every element of `m` in place — the
    /// allocation-free sibling of [`Activation::apply`] used by the
    /// quantised inference path.
    pub fn apply_inplace(self, m: &mut Matrix) {
        match self {
            Activation::Linear => {}
            Activation::Sigmoid => m.map_inplace(sigmoid),
            Activation::Tanh => m.map_inplace(f32::tanh),
            Activation::Relu => m.map_inplace(|x| x.max(0.0)),
        }
    }

    /// Derivative `f'(x)` expressed as a function of the activated output
    /// `y = f(x)`.
    pub fn derivative_from_output(self, y: &Matrix) -> Matrix {
        match self {
            Activation::Linear => Matrix::ones(y.rows(), y.cols()),
            Activation::Sigmoid => y.map(|v| v * (1.0 - v)),
            Activation::Tanh => y.map(|v| 1.0 - v * v),
            Activation::Relu => y.map(|v| if v > 0.0 { 1.0 } else { 0.0 }),
        }
    }
}

/// Scalar logistic sigmoid, numerically stable for large |x|.
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_derivative(act: Activation, x: f32) {
        let eps = 1e-3f32;
        let m = Matrix::filled(1, 1, x);
        let y = act.apply(&m);
        let analytic = act.derivative_from_output(&y)[(0, 0)];
        let y_plus = act.apply(&Matrix::filled(1, 1, x + eps))[(0, 0)];
        let y_minus = act.apply(&Matrix::filled(1, 1, x - eps))[(0, 0)];
        let numeric = (y_plus - y_minus) / (2.0 * eps);
        assert!(
            (analytic - numeric).abs() < 2e-3,
            "{act:?} at {x}: analytic {analytic} vs numeric {numeric}"
        );
    }

    #[test]
    fn derivatives_match_finite_difference() {
        for &x in &[-2.0f32, -0.5, 0.3, 1.7] {
            check_derivative(Activation::Linear, x);
            check_derivative(Activation::Sigmoid, x);
            check_derivative(Activation::Tanh, x);
            check_derivative(Activation::Relu, x); // x away from the kink
        }
    }

    #[test]
    fn sigmoid_extremes_are_stable() {
        assert!((sigmoid(100.0) - 1.0).abs() < 1e-6);
        assert!(sigmoid(-100.0) < 1e-6);
        assert!(sigmoid(-100.0) >= 0.0);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
    }

    #[test]
    fn relu_clamps_negatives() {
        let m = Matrix::from_rows(&[&[-1.0, 0.0, 2.0]]);
        let y = Activation::Relu.apply(&m);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn tanh_range() {
        let m = Matrix::from_rows(&[&[-10.0, 10.0]]);
        let y = Activation::Tanh.apply(&m);
        assert!(y.as_slice().iter().all(|&v| (-1.0..=1.0).contains(&v)));
    }

    #[test]
    fn default_is_linear() {
        assert_eq!(Activation::default(), Activation::Linear);
    }
}

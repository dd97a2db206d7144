/* The engine's step outside numpy (see simulation.py) over the K worlds of
 * one simulate_batch call: sensing, the fixed scenarios' scores (a popcount
 * against the target code), actuation, which makes every scenario's
 * decisions, and the emergent step's float work other than products, tanh
 * and exp. steps actuates, world by world: a whole fixed run, or one
 * emergent step, and copies each state the caller keeps into its rows when
 * they are bound. Its float arithmetic is IEEE + - * / and fabs only,
 * and one exact comparison, actuate's e = exp(-y) <= 1 + 2^-52 in place of
 * the reference's sigmoid(y) >= 0.5; built with -ffp-contract=off, so
 * every CPU gives the same bits. A CPython extension module, _step, built
 * and loaded by kernel.py. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>  /* first, as the C API requires */

#include <math.h>
#include <stdint.h>
#include <string.h>

enum { FREE = 0, ROBOT = 1, BLOCK = 2, SENSORS = 6, SENSOR_BITS = 12,
       INPUTS = 13, HIDDEN = 8 };

/* Shapes and arrays of one call, bound once by name; field order as in
 * kernel.Batch, a field not bound is 0 (NULL). Robot i = k * N + n is
 * robot n of world k, and robot i = g * M + m is robot m of genome g. */
struct batch {
    int64_t worlds, robots, cells;  /* K, N, L * L */
    int64_t genome_robots;          /* M = W * N robots per genome */
    int64_t steps, perm_size;       /* T; bytes per entry of perms */
    int64_t target;                 /* fixed scenarios: predicted code */
    int32_t *occ;                   /* (K * L * L) grid codes */
    int64_t *pos, *rh;              /* (K * N) flat cells, headings */
    int64_t *code;                  /* (K * N) sensor code | move << 12 */
    const int32_t *sensed;          /* (L * L * 4, 6): _tables(L) */
    const void *perms;              /* (K, T, N) step orders */
    double *score;                  /* (K,) error sums */
    const uint8_t *decisions;       /* (G, 8192, 2) fixed scenarios only;
                                       0 at the rows sensing never makes */
    /* the emergent scenario only; both nets run through product and out,
     * which holds the action outputs, (K * N, 2), until actuate reads them: */
    const double *input_rows;       /* (8192, 13) row c: input i = bit i of c */
    double *inputs;                 /* (K * N, 13) each robot's input row */
    double *out;                    /* (K * N, 12) either net's exp(-y) */
    double *product;                /* (K * N, 8) inputs @ hidden weights */
    double *hidden;                 /* (K * N, 8) prediction net state */
    const double *hidden_bias, *self_weight;  /* (G, 8) */
    const double *out_bias;         /* (G, 12) */
    const double *a_hidden_bias;    /* (G, 8) */
    const double *a_out_bias;       /* (G, 2) */
    /* the kept states, NULL unless the caller keeps some: kept_row[t] is
     * the row that holds the state after t steps, or -1; steps copies it
     * once the step that makes it has run (the caller copies the
     * placement, which is no step's) */
    const int64_t *kept_row;        /* (T + 1) */
    int64_t *kept_pos, *kept_rh;    /* (R, K * N) */
    int32_t *kept_occ;              /* (R, K * L * L) */
};

static int64_t order(const struct batch *b, int64_t i)
{
    switch (b->perm_size) {
    case 1: return ((const int8_t *)b->perms)[i];
    case 2: return ((const int16_t *)b->perms)[i];
    default: return ((const int64_t *)b->perms)[i];
    }
}

/* Each robot of world k's six sensed cells ORed into its code, which holds
 * only its previous move << 12: sensor s in bit s for a robot and bit
 * 6 + s for a block. */
static void sense(const struct batch *b, int64_t k)
{
    const int32_t *grid = b->occ + k * b->cells;
    for (int64_t i = k * b->robots; i < (k + 1) * b->robots; i++) {
        const int32_t *cell = b->sensed + (b->pos[i] * 4 + b->rh[i]) * SENSORS;
        int64_t code = b->code[i];
        for (int s = 0; s < SENSORS; s++) {
            int32_t v = grid[cell[s]];
            code |= (int64_t)(v == ROBOT) << s
                    | (int64_t)(v >= BLOCK) << (SENSORS + s);
        }
        b->code[i] = code;
    }
}

/* World k's step t. First each robot's (move, turn right): in the emergent
 * scenario off its action outputs e = exp(-y), the first K * N * 2 of out,
 * where the reference's 1 / (1 + e) >= 0.5 holds exactly when 1 + e rounds
 * to at most 2, that is when e <= 1 + 2^-52 (2 + 2^-52 ties to even at 2;
 * 2 + 2^-51 is exact); in a fixed one from its genome's table at
 * g << 13 | code. Then its turn, its code reset to its move << 12 and, in
 * the emergent scenario, its network input 12 set to its move. Then the
 * world's movers in step t's order: a mover pushes a block at c1 on into a
 * free c2, then leaves its cell for a free c1. */
static void actuate(const struct batch *b, int64_t k, int64_t t)
{
    int64_t N = b->robots, g = k * N / b->genome_robots;
    int32_t *grid = b->occ + k * b->cells;
    int64_t *pos = b->pos + k * N, *rh = b->rh + k * N, *code = b->code + k * N;
    for (int64_t n = 0; n < N; n++) {
        int64_t i = k * N + n, row = g << (SENSOR_BITS + 1) | code[n];
        int d[2];
        for (int j = 0; j < 2; j++)
            d[j] = b->decisions ? b->decisions[row * 2 + j]
                                : b->out[2 * i + j] <= 0x1.0000000000001p0;
        if (!d[0])
            rh[n] = (rh[n] + (d[1] ? 1 : 3)) & 3;
        code[n] = (int64_t)d[0] << SENSOR_BITS;
        if (b->inputs)
            b->inputs[i * INPUTS + SENSOR_BITS] = d[0];
    }
    int64_t at = (k * b->steps + t) * N;
    for (int64_t j = 0; j < N; j++) {
        int64_t r = order(b, at + j);
        if (code[r] == 0)
            continue;
        const int32_t *ahead = b->sensed + (pos[r] * 4 + rh[r]) * SENSORS;
        int32_t c1 = ahead[0], c2 = ahead[3], o1 = grid[c1];
        if (o1 >= BLOCK && grid[c2] == FREE)
            grid[c2] = o1;  /* push the block ahead on */
        else if (o1 != FREE)
            continue;  /* blocked: the robot stays */
        grid[pos[r]] = FREE;
        grid[c1] = ROBOT;
        pos[r] = c1;
    }
}

/* Steps t0 .. t1 - 1 of each world in turn: worlds share no cell, and each
 * world's sum still adds its terms in step order. With the decision tables
 * bound (a fixed scenario) a step first senses and adds each sensor code's
 * mismatch count with the target to its world's sum; an emergent step has
 * been sensed and scored by emergent_sense before its one-step call. A step
 * that makes a kept state copies the world's robot cells, headings and grid
 * into that state's row. */
static void steps(const struct batch *b, int64_t t0, int64_t t1)
{
    int64_t K = b->worlds, N = b->robots, L2 = b->cells;
    for (int64_t k = 0; k < K; k++)
        for (int64_t t = t0; t < t1; t++) {
            if (b->decisions) {
                sense(b, k);
                for (int64_t i = k * N; i < (k + 1) * N; i++)
                    b->score[k] += __builtin_popcountll(
                        (b->code[i] ^ b->target) & ((1 << SENSOR_BITS) - 1));
            }
            actuate(b, k, t);
            int64_t row = b->kept_row ? b->kept_row[t + 1] : -1;
            if (row >= 0) {
                memcpy(b->kept_pos + (row * K + k) * N, b->pos + k * N,
                       sizeof *b->pos * N);
                memcpy(b->kept_rh + (row * K + k) * N, b->rh + k * N,
                       sizeof *b->rh * N);
                memcpy(b->kept_occ + (row * K + k) * L2, b->occ + k * L2,
                       sizeof *b->occ * L2);
            }
        }
}

/* numpy's pairwise_sum of a[0 .. n): the order in which np.sum adds the
 * reference's N * 12 error terms of a step. numpy adds fewer than 8 terms
 * in a plain loop; here n >= 8, as a world has at least 12 terms and a
 * split leaves at least 64 on each side. */
static double pairwise_sum(const double *a, int64_t n)
{
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3]))
                     + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/* The per-robot helpers below, error terms and layer sums, take restrict
 * operands of a length fixed where they are inlined: the loops gcc -O2
 * vectorizes. Unrolled, an 8-unit hidden loop runs at numpy's speed at
 * K = 500; rolled, at half of it. */

/* One robot's 12 error terms |1 / (e + 1) - bit|, written over its pending
 * e = exp(-output): the reference's sigmoid and error. */
static void score_terms(double *restrict e, const double *restrict bit)
{
    for (int s = 0; s < SENSOR_BITS; s++)
        e[s] = fabs(1.0 / (e[s] + 1.0) - bit[s]);
}

/* An emergent step's sensing, world by world: sense, copy each robot's row
 * of input_rows at its code (its sensor bits and, as input 12, its previous
 * move: its action net input) and from step 1 on score its pending
 * prediction against that row, then add the world's error terms, in
 * numpy's order, to its sum. The terms overwrite the prediction in out;
 * the action outputs overwrite them next. */
static void emergent_sense(const struct batch *b, int64_t t)
{
    int64_t N = b->robots, terms = N * SENSOR_BITS;
    for (int64_t k = 0; k < b->worlds; k++) {
        sense(b, k);
        double *x = b->inputs + k * N * INPUTS, *e = b->out + k * terms;
        for (int64_t n = 0; n < N; n++) {
            const double *row = b->input_rows + b->code[k * N + n] * INPUTS;
            memcpy(x + n * INPUTS, row, sizeof *row * INPUTS);
            if (t > 0)
                score_terms(e + n * SENSOR_BITS, row);
        }
        if (t > 0)
            b->score[k] += pairwise_sum(e, terms);
    }
}

/* One robot's prediction net hidden layer before tanh, in the reference's
 * term order: (product + hidden * self weight) + bias. */
static void hidden_sum(double *restrict h, const double *restrict p,
                       const double *restrict self,
                       const double *restrict bias)
{
#pragma GCC unroll 8
    for (int j = 0; j < HIDDEN; j++)
        h[j] = (p[j] + h[j] * self[j]) + bias[j];
}

/* One robot's action net hidden layer before tanh: product + bias. */
static void bias_sum(double *restrict h, const double *restrict bias)
{
#pragma GCC unroll 8
    for (int j = 0; j < HIDDEN; j++)
        h[j] = h[j] + bias[j];
}

/* One robot's n network outputs, negated for exp: -(output + bias). */
static void output_sum(double *restrict y, const double *restrict bias,
                       int n)
{
    for (int s = 0; s < n; s++)
        y[s] = -(y[s] + bias[s]);
}

/* hidden_sum over every robot, each with its genome's weights. */
static void prediction_hidden(const struct batch *b)
{
    int64_t M = b->genome_robots, genomes = b->worlds * b->robots / M;
    for (int64_t g = 0; g < genomes; g++)
        for (int64_t i = g * M; i < (g + 1) * M; i++)
            hidden_sum(b->hidden + i * HIDDEN, b->product + i * HIDDEN,
                       b->self_weight + g * HIDDEN,
                       b->hidden_bias + g * HIDDEN);
}

/* output_sum over every robot, each with its genome's bias. */
static void prediction_output(const struct batch *b)
{
    int64_t M = b->genome_robots, genomes = b->worlds * b->robots / M;
    for (int64_t g = 0; g < genomes; g++)
        for (int64_t i = g * M; i < (g + 1) * M; i++)
            output_sum(b->out + i * SENSOR_BITS,
                       b->out_bias + g * SENSOR_BITS, SENSOR_BITS);
}

/* bias_sum over every robot, each with its genome's action net bias. */
static void action_hidden(const struct batch *b)
{
    int64_t M = b->genome_robots, genomes = b->worlds * b->robots / M;
    for (int64_t g = 0; g < genomes; g++)
        for (int64_t i = g * M; i < (g + 1) * M; i++)
            bias_sum(b->product + i * HIDDEN, b->a_hidden_bias + g * HIDDEN);
}

/* output_sum over every robot's two action outputs. */
static void action_output(const struct batch *b)
{
    int64_t M = b->genome_robots, genomes = b->worlds * b->robots / M;
    for (int64_t g = 0; g < genomes; g++)
        for (int64_t i = g * M; i < (g + 1) * M; i++)
            output_sum(b->out + 2 * i, b->a_out_bias + 2 * g, 2);
}

/* The Python side: one METH_FASTCALL function per pass, taking the address
 * of a kernel.Batch and then the pass's step numbers, all ints. */

/* Reads the n ints of a call to name into v. Raises TypeError and returns
 * -1 on a wrong count or an argument that is not an int (PyLong_AsLongLong
 * takes any object with __index__), OverflowError beyond int64. */
static int int_args(const char *name, PyObject *const *args,
                    Py_ssize_t nargs, Py_ssize_t n, int64_t *v)
{
    if (nargs != n) {
        PyErr_Format(PyExc_TypeError, "%s() takes %zd arguments (%zd given)",
                     name, n, nargs);
        return -1;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        v[i] = PyLong_AsLongLong(args[i]);
        if (v[i] == -1 && PyErr_Occurred())
            return -1;
    }
    return 0;
}

#define BATCH(v) ((const struct batch *)(intptr_t)(v)[0])

/* A Python function py_<pass> calling <pass> on the batch, with n - 1 step
 * numbers after it. */
#define WRAP(pass, n, ...)                                                 \
    static PyObject *py_##pass(PyObject *self, PyObject *const *args,      \
                               Py_ssize_t nargs)                           \
    {                                                                      \
        int64_t v[n];                                                      \
        (void)self;                                                        \
        if (int_args(#pass, args, nargs, n, v) < 0)                        \
            return NULL;                                                   \
        pass(__VA_ARGS__);                                                 \
        Py_RETURN_NONE;                                                    \
    }

/* steps(batch, t0, t1), which first checks 0 <= t0 <= t1 <= T: a step
 * outside the run would read past the step orders and kept_row. */
static PyObject *py_steps(PyObject *self, PyObject *const *args,
                          Py_ssize_t nargs)
{
    int64_t v[3];
    (void)self;
    if (int_args("steps", args, nargs, 3, v) < 0)
        return NULL;
    if (v[1] < 0 || v[1] > v[2] || v[2] > BATCH(v)->steps)
        return PyErr_Format(PyExc_ValueError,
                            "steps(batch, %lld, %lld) outside 0 .. %lld",
                            (long long)v[1], (long long)v[2],
                            (long long)BATCH(v)->steps);
    steps(BATCH(v), v[1], v[2]);
    Py_RETURN_NONE;
}

WRAP(emergent_sense, 2, BATCH(v), v[1])
WRAP(prediction_hidden, 1, BATCH(v))
WRAP(prediction_output, 1, BATCH(v))
WRAP(action_hidden, 1, BATCH(v))
WRAP(action_output, 1, BATCH(v))

#define METHOD(pass, signature)                                            \
    {#pass, (PyCFunction)(void (*)(void))py_##pass, METH_FASTCALL,        \
     #pass signature}

static PyMethodDef methods[] = {
    METHOD(steps, "(batch, t0, t1): each world's steps t0 .. t1 - 1"),
    METHOD(emergent_sense, "(batch, t): sense, inputs, score at step t"),
    METHOD(prediction_hidden, "(batch): (product + h * self) + bias"),
    METHOD(prediction_output, "(batch): -(output + bias)"),
    METHOD(action_hidden, "(batch): product + bias"),
    METHOD(action_output, "(batch): -(output + bias)"),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef step_module = {
    PyModuleDef_HEAD_INIT,
    "_step",                            /* m_name */
    "The engine's compiled step passes, each taking a kernel.Batch "
    "address.",                         /* m_doc */
    0,                                  /* m_size: no module state */
    methods,                            /* m_methods */
    NULL, NULL, NULL, NULL,             /* m_slots, m_traverse, m_clear, m_free */
};

PyMODINIT_FUNC PyInit__step(void)
{
    return PyModule_Create(&step_module);
}

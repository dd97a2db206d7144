/* The integer part of the engine's step (see simulation.py): sensing, the
 * fixed scenarios' table lookups and actuation, over the K worlds of one
 * simulate_batch call. No floating point. Built and loaded by kernel.py. */

#include <stdint.h>

enum { FREE = 0, ROBOT = 1, BLOCK = 2, SENSORS = 6, SENSOR_BITS = 12 };

/* Shapes and arrays of one call, bound once; field order as in
 * kernel.Batch. Robot i = k * N + n is robot n of world k. */
struct batch {
    int64_t worlds, robots, cells;  /* K, N, L * L */
    int64_t genome_robots;          /* M = W * N robots per genome */
    int64_t steps, perm_size;       /* T; bytes per entry of perms */
    int32_t *occ;                   /* (K * L * L) grid codes */
    int64_t *pos, *rh;              /* (K * N) flat cells, headings */
    int64_t *code;                  /* (K * N) sensor code | move << 12 */
    uint8_t *decide;                /* (K * N, 2) move, turn right */
    const int32_t *sensed;          /* (L * L * 4, 6): _tables(L) */
    const void *perms;              /* (K, T, N) step orders */
    const uint8_t *mismatches;      /* (4096,) fixed scenarios only */
    const uint8_t *decisions;       /* (G, 8192, 2) fixed scenarios only */
    int64_t *err;                   /* (K,) mismatch sums, fixed only */
};

static int64_t order(const struct batch *b, int64_t i)
{
    switch (b->perm_size) {
    case 1: return ((const int8_t *)b->perms)[i];
    case 2: return ((const int16_t *)b->perms)[i];
    default: return ((const int64_t *)b->perms)[i];
    }
}

/* Each robot's six sensed cells ORed into its code, which holds only its
 * previous move << 12: sensor s in bit s for a robot and bit 6 + s for a
 * block. */
void sense(const struct batch *b)
{
    for (int64_t k = 0; k < b->worlds; k++) {
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
}

/* All turns and each robot's code reset to its move << 12, then each
 * world's movers in step t's order: a mover pushes a block at c1 on into a
 * free c2, then leaves its cell for a free c1. */
void actuate(const struct batch *b, int64_t t)
{
    int64_t N = b->robots;
    for (int64_t i = 0; i < b->worlds * N; i++) {
        const uint8_t *d = b->decide + 2 * i;
        if (!d[0])
            b->rh[i] = (b->rh[i] + (d[1] ? 1 : 3)) & 3;
        b->code[i] = (int64_t)d[0] << SENSOR_BITS;
    }
    for (int64_t k = 0; k < b->worlds; k++) {
        int32_t *grid = b->occ + k * b->cells;
        int64_t *pos = b->pos + k * N, *rh = b->rh + k * N;
        const uint8_t *decide = b->decide + 2 * k * N;
        int64_t at = (k * b->steps + t) * N;
        for (int64_t j = 0; j < N; j++) {
            int64_t r = order(b, at + j);
            if (!decide[2 * r])
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
}

/* A fixed-prediction step: sense, add each code's mismatches to its
 * world's sum, look up each robot's decisions in its genome's table at
 * g << 13 | code, actuate. */
void fixed_step(const struct batch *b, int64_t t)
{
    sense(b);
    for (int64_t i = 0; i < b->worlds * b->robots; i++) {
        int64_t code = b->code[i];
        b->err[i / b->robots] += b->mismatches[code & ((1 << SENSOR_BITS) - 1)];
        const uint8_t *d = b->decisions
            + ((i / b->genome_robots) << (SENSOR_BITS + 1) | code) * 2;
        b->decide[2 * i] = d[0];
        b->decide[2 * i + 1] = d[1];
    }
    actuate(b, t);
}
